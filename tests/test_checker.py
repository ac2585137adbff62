from pathlib import Path

import pytest

from cctt import checker
from cctt.checker import (
    CheckState, check, check_clock_elim, check_comp,
    check_constructor_app, check_hit_signature, check_is_type,
    check_system, infer,
)
from cctt.conversion import conv, conv_tm, whnf
from cctt.errors import (
    BaseBoundaryMismatch, BoundaryIncompatible, BoundaryNotCovering, CaseBoundaryMismatch,
    ClockMismatch, EndpointMismatch, ForwardConstructorReference,
    IncompatibleOverlap, ParseError, TickEscape, TypeMismatch,
    UnboundVariable,
)
from cctt.interval import FBOT, FEq, FOr, FTOP, IVar, IZERO, IONE
from cctt.parser import (
    DataDefinition, Definition, parse_module, print_module, surface_module,
)
from cctt.syntax import (
    App, CApp, CLam, ClockElim, Comp, Con, Constructor, Context, DFix,
    Diamond, EClock, EIVar, ETick, EVar, ElimCase, ForceApp, Forall,
    Fst, HitSignature, Hit, K0, Lam, Later, PApp, PFix, PLam, PathT, Pi,
    Sigma, Snd,
    System, Telescope, TickApp, TickLam, TickVar, TopRef, U, Var,
    structural_equal, weaken,
)
from cctt.ticks import force
from oracles import load_workloads, reference_term_type

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
workloads = load_workloads()


EMPTY = Context()


def st():
    return CheckState(max_steps=500_000)


class TestBasicInference:
    def test_variable_across_tick(self):
        # x declared left of the tick is usable to its right.
        ctx = EMPTY.push(EVar(U(0))).push(ETick(K0)).push(EVar(Var(0)))
        assert infer(st(), ctx, Var(1)) == U(0)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            infer(st(), EMPTY, Var(0))

    def test_universe_hierarchy(self):
        assert infer(st(), EMPTY, U(0)) == U(1)
        assert check_is_type(st(), EMPTY, U(3)) == 4

    def test_pi_formation_level(self):
        assert infer(st(), EMPTY, Pi(U(0), U(1))) == U(2)

    def test_cumulativity(self):
        ctx = EMPTY.push(EVar(U(0)))
        check(st(), ctx, Var(0), U(2))  # a U0 code is also a U2 code

    def test_application(self):
        ctx = EMPTY.push(EVar(U(0))).push(EVar(Pi(Var(0), U(0))))
        ctx = ctx.push(EVar(Var(1)))
        assert infer(st(), ctx, App(Var(1), Var(0))) == U(0)

    def test_mismatch_against_pending_types_prints_terms(self):
        # A : U0, B : A -> U0, g : (x : A) -> B x -> U0, a : A.  The
        # codomain of g a and the domain of its next argument stay pending
        # on a; the errors carry and print them materialised.
        ctx = (EMPTY.push(EVar(U(0))).push(EVar(Pi(Var(0), U(0))))
               .push(EVar(Pi(Var(1), Pi(App(Var(1), Var(0)), U(0)))))
               .push(EVar(Var(2))))
        g_a = App(Var(1), Var(0))
        cases = [(g_a, U(0), U(0), Pi(App(Var(2), Var(0)), U(0))),
                 (App(g_a, Var(0)), U(0), App(Var(2), Var(0)), Var(3))]
        for t, ty, expected, actual in cases:
            with pytest.raises(TypeMismatch) as err:
                check(st(), ctx, t, ty)
            assert err.value.payload == {"expected": expected,
                                         "actual": actual}
            assert "Closure" not in str(err.value)
            assert f"expected={expected!r}, actual={actual!r}" \
                in str(err.value)

    def test_pair_projections(self):
        ctx = EMPTY.push(EVar(Sigma(U(0), Var(0))))
        assert infer(st(), ctx, Fst(Var(0))) == U(0)
        snd_ty = infer(st(), ctx, Snd(Var(0)))
        assert conv_tm(st(), ctx, snd_ty, Fst(Var(0)))


class TestTickTyping:
    def test_simple_tick_application(self):
        # A, x : |>A, alpha : k0 |- x [alpha] : A.
        ctx = (EMPTY.push(EVar(U(0)))
               .push(EVar(Later(K0, Var(0)))).push(ETick(K0)))
        got = infer(st(), ctx, TickApp(Var(0), TickVar(0)))
        assert force(got) == Var(1)

    def test_tick_escape(self):
        # x declared right of the tick cannot feed an application at it.
        ctx = (EMPTY.push(EVar(U(0))).push(ETick(K0))
               .push(EVar(Later(K0, Var(0)))))
        with pytest.raises(TickEscape):
            infer(st(), ctx, TickApp(Var(0), TickVar(0)))

    def test_unit_into_later(self):
        # \x. tick a : k0. x  :  A -> |> A.
        ctx = EMPTY.push(EVar(U(0)))
        term = Lam(TickLam(K0, Var(0)))
        ty = Pi(Var(0), Later(K0, Var(1)))
        check(st(), ctx, term, ty)

    def test_dependent_applicative(self):
        # \f.\y. tick a. (f [a]) (y [a]).
        ctx = EMPTY.push(EVar(U(0))).push(EVar(Pi(Var(0), U(0))))
        fn_ty = Later(K0, Pi(Var(1), App(Var(1), Var(0))))
        ty = Pi(
            fn_ty,
            Pi(Later(K0, Var(2)),
               Later(K0, App(Var(2), TickApp(Var(0), TickVar(0))))),
        )
        term = Lam(Lam(TickLam(K0, App(
            TickApp(Var(1), TickVar(0)), TickApp(Var(0), TickVar(0))
        ))))
        check(st(), ctx, term, ty)

    def test_force(self):
        # \x. /\k'. (k. x {k}) [(k', <>)]  :  (forall k. |>A) -> forall k. A
        ctx = EMPTY.push(EVar(U(0)))
        term = Lam(CLam(ForceApp(CApp(Var(0), 0), 0, Diamond())))
        ty = Pi(Forall(Later(0, Var(0))), Forall(Var(1)))
        check(st(), ctx, term, ty)

    def test_dfix_type(self):
        ctx = (EMPTY.push(EVar(U(0)))
               .push(EVar(Pi(Later(K0, Var(0)), Var(1)))))
        got = whnf(st(), ctx, infer(st(), ctx, DFix(K0, Var(0))))
        assert got == Later(K0, Var(1))

    def test_pfix_type(self):
        ctx = (EMPTY.push(EVar(U(0)))
               .push(EVar(Pi(Later(K0, Var(0)), Var(1)))))
        got = whnf(st(), ctx, infer(st(), ctx, PFix(K0, Var(0))))
        assert isinstance(got, Later)
        inner = whnf(st(), ctx.push(ETick(K0)), got.ty)
        assert isinstance(inner, PathT)
        assert inner.left == TickApp(DFix(K0, Var(0)), TickVar(0))
        assert inner.right == App(Var(0), DFix(K0, Var(0)))

    def test_clock_constant_and_negative_clocks(self):
        # The constant is a clock in every context, and only that negative
        # index is.
        ctx = EMPTY.push(EVar(U(0)))
        assert infer(st(), ctx, Later(K0, Var(0))) == U(0)
        for clock in (-2, 0):
            with pytest.raises(ClockMismatch):
                infer(st(), ctx, Later(clock, Var(0)))
        with pytest.raises(ClockMismatch):
            infer(st(), EMPTY.push(EClock()).push(EVar(Forall(U(0)))),
                  CApp(Var(0), -2))

    def test_dfix_wrong_clock(self):
        ctx = (EMPTY.push(EClock()).push(EVar(U(0)))
               .push(EVar(Pi(Later(0, Var(0)), Var(1)))))
        with pytest.raises(ClockMismatch):
            infer(st(), ctx, DFix(K0, Var(0)))


class TestPaths:
    def _path_ctx(self):
        # A, x, y : A, p : Path A x y.
        return (EMPTY.push(EVar(U(0))).push(EVar(Var(0)))
                .push(EVar(Var(1)))
                .push(EVar(PathT(Var(2), Var(1), Var(0)))))

    def test_refl_checks(self):
        ctx = EMPTY.push(EVar(U(0))).push(EVar(Var(0)))
        check(st(), ctx, PLam(Var(0)), PathT(Var(1), Var(0), Var(0)))

    def test_endpoint_mismatch(self):
        ctx = (EMPTY.push(EVar(U(0))).push(EVar(Var(0)))
               .push(EVar(Var(1))))
        with pytest.raises(EndpointMismatch):
            check(st(), ctx, PLam(Var(1)),
                  PathT(Var(2), Var(1), Var(0)))

    def test_path_application_endpoint(self):
        ctx = self._path_ctx()
        got = whnf(st(), ctx, PApp(Var(0), IZERO))
        assert got == Var(2)

    def test_funext(self):
        # fields: A, B : U0, f g : A -> B, p : (x:A) -> Path B (f x) (g x)
        ctx = (EMPTY.push(EVar(U(0))).push(EVar(U(0)))
               .push(EVar(Pi(Var(1), Var(1))))
               .push(EVar(Pi(Var(2), Var(2))))
               .push(EVar(Pi(Var(3), PathT(
                   Var(3), App(Var(2), Var(0)), App(Var(1), Var(0))
               )))))
        term = PLam(Lam(PApp(App(Var(1), Var(0)), IVar(0))))
        goal = PathT(Pi(Var(4), Var(4)), Var(2), Var(1))
        check(st(), ctx, term, goal)


class TestSystemsAndComposition:
    def _ctx(self):
        # A, x, y, z, p : Path A x y, q : Path A y z.
        ctx = EMPTY.push(EVar(U(0)))
        ctx = ctx.push(EVar(Var(0))).push(EVar(Var(1))).push(EVar(Var(2)))
        ctx = ctx.push(EVar(PathT(Var(3), Var(2), Var(1))))
        ctx = ctx.push(EVar(PathT(Var(4), Var(2), Var(1))))
        return ctx

    def test_system_disjoint_ok(self):
        ctx = self._ctx().push(EIVar())
        parts = ((FEq(0, 0), Var(4)), (FEq(0, 1), Var(3)))
        check_system(st(), ctx, parts, Var(5))

    def test_system_incompatible_overlap(self):
        ctx = self._ctx().push(EIVar())
        parts = ((FEq(0, 0), Var(4)), (FEq(0, 0), Var(3)))
        with pytest.raises(IncompatibleOverlap):
            check_system(st(), ctx, parts, Var(5))

    def test_transitivity_composition(self):
        ctx = self._ctx().push(EIVar())
        face = FOr(FEq(0, 0), FEq(0, 1))
        tube = System((
            (FEq(1, 0), Var(4)),
            (FEq(1, 1), PApp(Var(0), IVar(0))),
        ))
        problem = Comp(Var(5), face, tube, PApp(Var(1), IVar(0)))
        assert check_comp(st(), ctx, problem) == Var(5)

    def test_transitivity_path(self):
        ctx = self._ctx()
        face = FOr(FEq(0, 0), FEq(0, 1))
        tube = System((
            (FEq(1, 0), Var(4)),
            (FEq(1, 1), PApp(Var(0), IVar(0))),
        ))
        term = PLam(Comp(Var(5), face, tube, PApp(Var(1), IVar(0))))
        check(st(), ctx, term, PathT(Var(5), Var(4), Var(2)))

    def test_base_boundary_mismatch(self):
        ctx = self._ctx().push(EIVar())
        face = FEq(0, 0)
        tube = System(((FEq(1, 0), Var(3)),))  # y where x is required
        problem = Comp(Var(5), face, tube, PApp(Var(1), IVar(0)))
        with pytest.raises(BaseBoundaryMismatch):
            check_comp(st(), ctx, problem)

    def test_empty_extent_any_tube(self):
        ctx = self._ctx()
        problem = Comp(Var(5), FBOT, Var(3), Var(4))
        assert check_comp(st(), ctx, problem) == Var(5)


# --------------------------------------------------------------------------
# HIT signatures
# --------------------------------------------------------------------------

def nat_signature():
    return HitSignature("nat", Telescope(()), 0, (
        Constructor("zero", Telescope(()), (), 0, FBOT, ()),
        Constructor("succ", Telescope(()), (Telescope(()),), 0, FBOT, ()),
    ))


# Boundary pieces are scoped in the parameters, the constructor's
# arguments, its recursive arguments and its interval binders.

def circle_signature():
    ends = FOr(FEq(0, 0), FEq(0, 1))
    base = Con("s1", "base", (), (), (), ())
    return HitSignature("s1", Telescope(()), 0, (
        Constructor("base", Telescope(()), (), 0, FBOT, ()),
        Constructor("loop", Telescope(()), (), 1, ends, (
            (FEq(0, 0), base),
            (FEq(0, 1), base),
        )),
    ))


def trunc_signature():
    ends = FOr(FEq(0, 0), FEq(0, 1))
    return HitSignature("trunc", Telescope((U(0),)), 0, (
        Constructor("in", Telescope((Var(0),)), (), 0, FBOT, ()),
        Constructor("squash", Telescope(()),
                    (Telescope(()), Telescope(())), 1, ends, (
                        (FEq(0, 0), Var(1)),   # x
                        (FEq(0, 1), Var(0)),   # y
                    )),
    ))


def pushout_signature():
    ends = FOr(FEq(0, 0), FEq(0, 1))
    params = Telescope((U(0), U(0), U(0),
                        Pi(Var(0), Var(3)), Pi(Var(1), Var(3))))
    # A, B, C, f, g past push's argument c.
    delta = tuple(Var(5 - p) for p in range(5))
    return HitSignature("po", params, 0, (
        Constructor("inl", Telescope((Var(4),)), (), 0, FBOT, ()),
        Constructor("inr", Telescope((Var(3),)), (), 0, FBOT, ()),
        Constructor("push", Telescope((Var(2),)), (), 1, ends, (
            (FEq(0, 0), Con("po", "inl", delta, (App(Var(2), Var(0)),),
                            (), ())),
            (FEq(0, 1), Con("po", "inr", delta, (App(Var(1), Var(0)),),
                            (), ())),
        )),
    ))


def powerset_signature():
    ends = FOr(FEq(0, 0), FEq(0, 1))
    # idem's piece at 0 is the union of its recursive argument x with
    # itself; A is past x.
    union_xx = Con("pf", "union", (Var(1),), (), (Var(0), Var(0)), ())
    return HitSignature("pf", Telescope((U(0),)), 0, (
        Constructor("empty", Telescope(()), (), 0, FBOT, ()),
        Constructor("sing", Telescope((Var(0),)), (), 0, FBOT, ()),
        Constructor("union", Telescope(()),
                    (Telescope(()), Telescope(())), 0, FBOT, ()),
        Constructor("idem", Telescope(()), (Telescope(()),), 1, ends, (
            (FEq(0, 0), union_xx),
            (FEq(0, 1), Var(0)),
        )),
    ))


class TestHitSignatures:
    def test_nat_ok(self):
        assert check_hit_signature(st(), nat_signature())

    def test_circle_ok(self):
        assert check_hit_signature(st(), circle_signature())

    def test_trunc_ok(self):
        assert check_hit_signature(st(), trunc_signature())

    def test_pushout_ok(self):
        assert check_hit_signature(st(), pushout_signature())

    def test_powerset_ok(self):
        assert check_hit_signature(st(), powerset_signature())

    def test_forward_reference_rejected(self):
        bad = HitSignature("bad", Telescope(()), 0, (
            Constructor("early", Telescope(()), (), 1, FEq(0, 0), (
                (FEq(0, 0), Con("bad", "late", (), (), (), ())),
            )),
            Constructor("late", Telescope(()), (), 0, FBOT, ()),
        ))
        with pytest.raises(ForwardConstructorReference):
            check_hit_signature(st(), bad)

    def test_non_covering_boundary_rejected(self):
        bad = HitSignature("bad", Telescope(()), 0, (
            Constructor("pt", Telescope(()), (), 0, FBOT, ()),
            Constructor("half", Telescope(()), (), 1,
                        FOr(FEq(0, 0), FEq(0, 1)), (
                            (FEq(0, 0), Con("bad", "pt", (), (), (), ())),
                        )),
        ))
        with pytest.raises(BoundaryNotCovering):
            check_hit_signature(st(), bad)


def _cube_source(pieces, bare=""):
    """A 6-cube `cell` over the points `pt` and `qt`, with one boundary
    piece per (coordinate, end), coordinates listed in a shuffled order."""
    entries = ", ".join(f"({v} = {e}) -> {rhs}" for v, e, rhs in pieces)
    binders = " ".join(f"(i{k} : I)" for k in range(6))
    return (f"data cube : U0 where | pt | qt"
            f" | cell {binders} [{entries}{bare}]")


_CUBE_PIECES = [(f"i{k}", e, "pt") for k in (3, 0, 5, 1, 4, 2)
                for e in (0, 1)]


def _cube(pieces, bare=""):
    return parse_module(_cube_source(pieces, bare)).decls[0].sig


class TestBoundaryVerdicts:
    """Verdicts of HIT boundary checking, each as the tree-form face
    lattice gave it."""

    def test_six_cube_passes(self):
        assert check_hit_signature(st(), _cube(_CUBE_PIECES))

    def test_changed_piece_names_the_pair(self):
        pieces = list(_CUBE_PIECES)
        pieces[7] = ("i5", 1, "qt")
        with pytest.raises(BoundaryIncompatible) as info:
            check_hit_signature(st(), _cube(pieces))
        assert str(info.value) == (
            "boundary pieces 0 and 7 of cell disagree on their overlap"
            " [face=((i0=1) /\\ (i2=0))]"
        )

    def test_uncovered_face(self):
        with pytest.raises(BoundaryNotCovering):
            check_hit_signature(st(), _cube(_CUBE_PIECES[2:], ", (i3 = 1)"))

    @pytest.mark.parametrize("pieces, ok", [
        # On j = 0 the hcomp's face holds, so the piece is its tube at 1,
        # seg 1 = b: the endpoint for j must not land on the tube
        # variable k.
        ("| sq (j : I) [(j = 0) -> hcomp^k [(j = 0) -> seg k] a,"
         " (j = 0) -> a]", False),
        ("| sq (j : I) [(j = 0) -> hcomp^k [(j = 0) -> seg k] a,"
         " (j = 0) -> b]", True),
        # w x 0 is x through a tube, so w (seg l) 0 is seg l: the
        # recursive payload seg l, met in the tube, must move past it.
        ("| w (x : t) (j : I) [(j = 0) -> hcomp^k [(j = 0) -> x] x]"
         " | sq (i : I) (l : I) [(i = 0) -> w (seg l) 0, (i = 0) -> seg l]",
         True),
    ], ids=("endpoint-a", "endpoint-b", "payload-in-tube"))
    def test_boundary_hcomp_tube_keeps_its_binder(self, pieces, ok):
        sig = parse_module(
            "data t : U0 where | a | b"
            " | seg (i : I) [(i = 0) -> a, (i = 1) -> b] " + pieces
        ).decls[0].sig
        if ok:
            assert check_hit_signature(st(), sig)
        else:
            with pytest.raises(BoundaryIncompatible):
                check_hit_signature(st(), sig)

    def test_boundary_hcomp_base_must_agree_with_its_tube(self):
        # The tube at 0 is seg 0 = a, but the base is b: an ordinary hcomp
        # with this fault fails, and so does one in a boundary.
        sig = parse_module(
            "data t : U0 where | a | b"
            " | seg (i : I) [(i = 0) -> a, (i = 1) -> b]"
            " | sq (j : I) [(j = 0) -> hcomp^k [(j = 0) -> seg k] b]"
        ).decls[0].sig
        with pytest.raises(BaseBoundaryMismatch):
            check_hit_signature(st(), sig)

    @pytest.mark.parametrize("pieces", [
        "[(i = 0) -> seg j, (j = 0) -> seg i]",
        "[(i = 0) -> seg j, (j = 0) \\/ (j = 1) -> seg (j /\\ ~ i)]",
    ], ids=("one-clause", "two-clauses"))
    def test_overlap_convertible_at_its_endpoints(self, pieces, monkeypatch):
        # The pieces differ as terms; with the overlap's endpoints put in
        # they are the same point, so they are compared by conversion in
        # the context restricted to the overlap (seg's empty overlap is
        # answered at once).
        faces = []
        original = checker.conv

        def conv(state, ctx, *rest):
            if ctx.restriction not in (FTOP, FBOT):
                faces.append(ctx.restriction)
            return original(state, ctx, *rest)

        monkeypatch.setattr(checker, "conv", conv)
        sig = parse_module(
            "data t : U0 where | a | b"
            " | seg (i : I) [(i = 0) -> a, (i = 1) -> b]"
            " | sq (i : I) (j : I) " + pieces
        ).decls[0].sig
        assert check_hit_signature(st(), sig)
        assert len(faces) == 1

    @pytest.mark.parametrize("face, ok", [
        ("(j = 0)", True),
        ("(j = 0) \\/ (j = 1)", False),
    ], ids=("first-clause", "both-clauses"))
    def test_overlap_disagreeing_on_its_second_clause(self, face, ok):
        # seg j is a on i = 0, j = 0, where the pieces agree, and b on
        # i = 0, j = 1, where they do not.
        sig = parse_module(
            "data t : U0 where | a | b"
            " | seg (i : I) [(i = 0) -> a, (i = 1) -> b]"
            f" | sq (i : I) (j : I) [(i = 0) -> seg j, {face} -> a]"
        ).decls[0].sig
        if ok:
            assert check_hit_signature(st(), sig)
            return
        with pytest.raises(BoundaryIncompatible) as info:
            check_hit_signature(st(), sig)
        assert str(info.value) == (
            "boundary pieces 0 and 1 of sq disagree on their overlap"
            " [face=(((i0=0) /\\ (i1=0)) \\/ ((i0=1) /\\ (i1=0)))]"
        )

    @pytest.mark.parametrize("params, last, ok", [
        # seg 0 is pt a: a parameter, read past sq's argument y.
        ("(A : U0) (a : A)", "pt a", True),
        ("(A : U0) (a : A) (b : A)", "pt b", False),
    ], ids=("same-parameter", "other-parameter"))
    def test_boundary_parameters_past_arguments(self, params, last, ok):
        sig = parse_module(
            f"data d {params} : U0 where | pt (x : A)"
            " | seg (i : I) [(i = 0) -> pt a, (i = 1) -> pt a]"
            f" | sq (y : A) (j : I) [(j = 0) -> seg 0, (j = 0) -> {last}]"
        ).decls[0].sig
        if ok:
            assert check_hit_signature(st(), sig)
        else:
            with pytest.raises(BoundaryIncompatible):
                check_hit_signature(st(), sig)

    def test_bare_face_entry_round_trips(self):
        src = ("data sq : U0 where | pt"
               " | cell (i : I) (j : I) [(i = 0) -> pt, (j = 1) \\/ (i = 1)]")
        module = parse_module(src)
        printed = print_module(module)
        assert printed.endswith(
            "[(i0 = 0) -> pt, ((i1 = 1) \\/ (i0 = 1))]\n"
        )
        assert parse_module(printed) == module


def _data_signatures():
    """The data signatures of the corpus, and of the `scale` generator's
    `pset` and `cube` inputs for seeds 1-3, each that elaborates."""
    texts = [path.read_text() for path in sorted(CORPUS.rglob("*.cctt"))]
    texts += [inp.text for seed in (1, 2, 3)
              for inp in workloads.scale(seed)
              if inp.family in ("pset", "cube")]
    for text in texts:
        try:
            decls = surface_module(text)
        except ParseError:
            continue
        for _, _, decl in decls:
            if isinstance(decl, DataDefinition):
                yield decl.sig


def test_boundary_types_are_the_renamed_ones():
    # The recursive arguments' types a boundary is checked in are built
    # once, as its entries, and read off them: materialised, they are the
    # entries' types renamed to its end.
    recs = 0
    for sig in _data_signatures():
        for ctor in sig.constructors:
            cctx = EMPTY
            for ty in (*sig.params.types, *ctor.args.types):
                cctx = cctx.push(EVar(ty))
            bctx, _ = checker._boundary_context(sig, ctor, cctx)
            r = len(ctor.rec_arities)
            for ix in range(r):
                assert structural_equal(force(bctx.term_type(ix)),
                                        reference_term_type(bctx, ix))
            recs += r
    assert recs > 500


class TestConstructors:
    def _state(self):
        state = st()
        state.signatures["nat"] = nat_signature()
        state.signatures["s1"] = circle_signature()
        state.signatures["po"] = pushout_signature()
        state.signatures["pf"] = powerset_signature()
        return state

    def test_point_constructor(self):
        state = self._state()
        z = Con("nat", "zero", (), (), (), ())
        assert infer(state, EMPTY, z) == Hit("nat", ())

    def test_loop_endpoints_reduce(self):
        state = self._state()
        base = Con("s1", "base", (), (), (), ())
        at0 = Con("s1", "loop", (), (), (), (IZERO,))
        assert whnf(state, EMPTY, at0) == base
        at1 = Con("s1", "loop", (), (), (), (IONE,))
        assert whnf(state, EMPTY, at1) == base

    def test_idem_endpoints(self):
        state = self._state()
        ctx = (EMPTY.push(EVar(U(0)))
               .push(EVar(Hit("pf", (Var(0),)))))
        x = Var(0)
        at0 = Con("pf", "idem", (Var(1),), (), (x,), (IZERO,))
        got = whnf(state, ctx, at0)
        assert got == Con("pf", "union", (Var(1),), (), (x, x), ())
        at1 = Con("pf", "idem", (Var(1),), (), (x,), (IONE,))
        assert whnf(state, ctx, at1) == x

    def test_push_endpoint(self):
        state = self._state()
        # A B C : U0, f : C -> A, g : C -> B, c : C.
        ctx = (EMPTY.push(EVar(U(0))).push(EVar(U(0))).push(EVar(U(0)))
               .push(EVar(Pi(Var(0), Var(3))))
               .push(EVar(Pi(Var(1), Var(3))))
               .push(EVar(Var(2))))
        params = (Var(5), Var(4), Var(3), Var(2), Var(1))
        p = Con("po", "push", params, (Var(0),), (), (IZERO,))
        ty = infer(state, ctx, p)
        assert ty == Hit("po", params)
        got = whnf(state, ctx, p)
        assert got == Con("po", "inl", params,
                          (App(Var(2), Var(0)),), (), ())

    def test_constructor_app_types(self):
        state = self._state()
        ctx = EMPTY.push(EVar(U(0))).push(EVar(Var(0)))
        got = check_constructor_app(
            state, ctx, state.signatures["pf"], "sing",
            (Var(1),), (Var(0),), (), (),
        )
        assert got == Hit("pf", (Var(1),))

    def test_constructor_parameters_against_the_expected_type(self,
                                                               monkeypatch):
        state = self._state()
        state.add_definition("idU", Pi(U(0), U(0)), Lam(Var(0)))
        ctx = EMPTY.push(EVar(U(0))).push(EVar(U(0)))
        ety = Hit("pf", (Var(1),))
        convs = []

        def counted(state, ctx, ty, t, u):
            convs.append((t, u))
            return conv(state, ctx, ty, t, u)

        monkeypatch.setattr(checker, "conv", counted)
        # Equal parameters give the expected type: nothing to convert.
        check(state, ctx, Con("pf", "empty", (Var(1),), (), (), ()), ety)
        check(state, ctx, Con("pf", "empty", (), (), (), ()), ety)
        assert convs == []
        # Convertible ones are compared by conversion.
        idu = App(TopRef("idU"), Var(1))
        check(state, ctx, Con("pf", "empty", (idu,), (), (), ()), ety)
        assert convs == [(Hit("pf", (idu,)), ety)]
        with pytest.raises(TypeMismatch,
                           match="constructor parameters disagree"):
            check(state, ctx, Con("pf", "empty", (Var(0),), (), (), ()), ety)


def nat_num(k):
    t = Con("nat", "zero", (), (), (), ())
    for _ in range(k):
        t = Con("nat", "succ", (), (), (t,), ())
    return t


def nat_add(m, n_weak_free):
    """m + n by recursion on m (n scoped in the calling context)."""
    return ClockElim(
        "nat", 0, (), Hit("nat", ()),
        (
            ElimCase("zero", 0, 0, 0, n_weak_free),
            ElimCase("succ", 0, 1, 0,
                     Con("nat", "succ", (), (), (Var(0),), ())),
        ),
        m,
    )


class TestClockElim:
    def _state(self):
        state = st()
        state.signatures["nat"] = nat_signature()
        state.signatures["s1"] = circle_signature()
        state.signatures["trunc"] = trunc_signature()
        return state

    def test_nat_addition_checks(self):
        state = self._state()
        two = nat_num(2)
        term = nat_add(two, two)
        assert check_clock_elim(state, EMPTY, term) == Hit("nat", ())

    def test_two_plus_two(self):
        state = self._state()
        term = nat_add(nat_num(2), nat_num(2))
        assert conv_tm(state, EMPTY, term, nat_num(4))
        assert not conv_tm(state, EMPTY, term, nat_num(3))

    def test_circle_identity_elim(self):
        state = self._state()
        ctx = EMPTY.push(EVar(Hit("s1", ())))
        term = ClockElim(
            "s1", 0, (), Hit("s1", ()),
            (
                ElimCase("base", 0, 0, 0, Con("s1", "base", (), (), (), ())),
                ElimCase("loop", 0, 0, 1,
                         Con("s1", "loop", (), (), (), (IVar(0),))),
            ),
            Var(0),
        )
        assert infer(state, ctx, term) == Hit("s1", ())

    def test_trunc_identity_elim(self):
        state = self._state()
        # A : U0, u : trunc A.
        ctx = EMPTY.push(EVar(U(0))).push(EVar(Hit("trunc", (Var(0),))))
        term = ClockElim(
            "trunc", 0, (Var(1),), Hit("trunc", (Var(2),)),
            (
                ElimCase("in", 1, 0, 0,
                         Con("trunc", "in", (Var(2),), (Var(0),), (), ())),
                ElimCase("squash", 0, 2, 1,
                         Con("trunc", "squash", (Var(5),), (),
                             (Var(1), Var(0)), (IVar(0),))),
            ),
            Var(0),
        )
        assert force(infer(state, ctx, term)) == Hit("trunc", (Var(1),))

    def test_squash_case_missing_endpoint(self):
        state = self._state()
        ctx = EMPTY.push(EVar(U(0))).push(EVar(Hit("trunc", (Var(0),))))
        term = ClockElim(
            "trunc", 0, (Var(1),), Hit("trunc", (Var(2),)),
            (
                ElimCase("in", 1, 0, 0,
                         Con("trunc", "in", (Var(2),), (Var(0),), (), ())),
                # Constantly the first hypothesis: breaks the i=1 boundary.
                ElimCase("squash", 0, 2, 1, Var(1)),
            ),
            Var(0),
        )
        with pytest.raises(CaseBoundaryMismatch):
            infer(state, ctx, term)

    def test_trunc_elim_under_one_clock(self):
        state = self._state()
        # A : U0, u : forall k. trunc A.
        ctx = EMPTY.push(EVar(U(0)))
        scrut_ty = Forall(Hit("trunc", (Var(0),)))
        ctx = ctx.push(EVar(scrut_ty))
        term = ClockElim(
            "trunc", 1, (CLam(Var(1)),), Hit("trunc", (Var(2),)),
            (
                ElimCase("in", 1, 0, 0,
                         Con("trunc", "in", (Var(2),),
                             (CApp(Var(0), K0),), (), ())),
                ElimCase("squash", 0, 2, 1,
                         Con("trunc", "squash", (Var(5),), (),
                             (Var(1), Var(0)), (IVar(0),))),
            ),
            Var(0),
        )
        assert force(infer(state, ctx, term)) == Hit("trunc", (Var(1),))

    def test_elim_beta_agrees_with_case(self):
        state = self._state()
        ctx = EMPTY.push(EVar(U(0))).push(EVar(Var(0)))
        scrut = CLam(Con("trunc", "in", (Var(1),), (Var(0),), (), ()))
        term = ClockElim(
            "trunc", 1, (CLam(Var(1)),), Hit("trunc", (Var(2),)),
            (
                ElimCase("in", 1, 0, 0,
                         Con("trunc", "in", (Var(2),),
                             (CApp(Var(0), K0),), (), ())),
                ElimCase("squash", 0, 2, 1,
                         Con("trunc", "squash", (Var(5),), (),
                             (Var(1), Var(0)), (IVar(0),))),
            ),
            scrut,
        )
        infer(state, ctx, term)
        got = whnf(state, ctx, term)
        want = Con("trunc", "in", (Var(1),), (Var(0),), (), ())
        assert conv_tm(state, ctx, got, want)


# A recursive argument whose arity telescope has two entries, the second
# (Path A a x) reading the data type's parameter, the constructor's
# argument and the first entry.
TREE = (
    "data nat : U0 where | zero | suc (m : nat)\n"
    "data tree (A : U0) : U0 where\n"
    "  | leaf\n"
    "  | node (a : A) (f : (x : A) -> (y : Path A a x) -> tree)\n"
)

TREE_DECLS = (
    # A constructor application whose recursive argument uses its path
    # at the instantiated type.
    "def two (A : U0) (a : A) : tree A :=\n"
    "  node a (\\x. \\p. node (p @ 1) (\\y. \\q. leaf))\n",
    # The induction hypothesis over the arity.
    "def size (A : U0) (t : tree A) : nat :=\n"
    "  clockelim^0 tree A t into (h. nat) with\n"
    "  | leaf => zero\n"
    "  | node a f g => suc (g a (<i> a))\n",
    # The recursive value itself.
    "def root (A : U0) (t : tree A) : tree A :=\n"
    "  clockelim^0 tree A t into (h. tree A) with\n"
    "  | leaf => leaf\n"
    "  | node a f g => f a (<i> a)\n",
)


def _checked_module(text):
    """A state with the data types and definitions of text added, and the
    conversion problems of text."""
    state = st()
    problems = []
    for decl in parse_module(text).decls:
        if isinstance(decl, DataDefinition):
            state.add_signature(decl.sig)
        elif isinstance(decl, Definition):
            state.add_definition(decl.name, decl.ty, decl.body)
        else:
            problems.append(decl)
    return state, problems


class TestDependentArity:
    """Each place the arity telescope is instantiated (the constructor
    application, an eliminator case's recursive value and its induction
    hypothesis) reads the second entry past the first one's binder."""

    @pytest.mark.parametrize("decl", TREE_DECLS,
                             ids=("constructor", "hypothesis", "value"))
    def test_declaration_checks(self, decl):
        state, _ = _checked_module(TREE + decl)
        name = decl.split()[1]
        assert name in state.definitions

    def test_eliminators_reduce_through_the_arity(self):
        state, problems = _checked_module(
            TREE + "".join(TREE_DECLS)
            + "--expect-conv size nat (two nat zero) = suc (suc zero) : nat\n"
            "--expect-conv size nat (two nat zero) = suc zero : nat\n"
            "--expect-conv root nat (two nat zero)"
            " = node zero (\\y. \\q. leaf) : tree nat\n")
        verdicts = [conv(state, EMPTY, p.ty, p.lhs, p.rhs)
                    for p in problems]
        assert verdicts == [True, False, True]


class TestKernelErrors:
    """A kernel bug propagates; only checking errors become verdicts."""

    @pytest.fixture
    def broken_is_type(self, monkeypatch):
        def broken(*args):
            raise AttributeError("a kernel bug")
        monkeypatch.setattr(checker, "check_is_type", broken)

    def test_signature_check_lets_kernel_errors_through(self,
                                                        broken_is_type):
        with pytest.raises(AttributeError):
            check_hit_signature(st(), trunc_signature())

    def test_motive_check_lets_kernel_errors_through(self, broken_is_type):
        state = st()
        state.signatures["nat"] = nat_signature()
        with pytest.raises(AttributeError):
            check_clock_elim(state, EMPTY, nat_add(nat_num(1), nat_num(1)))
