import random

import pytest

from cctt import parser, syntax
from cctt.errors import CcttError
from cctt.interval import (
    FAnd, FBOT, FEq, FOr, FTOP, Face, IExpr, IMeet, INeg, IONE, IVar, IZERO,
    iv_map_vars,
)
from cctt.parser import (
    ConvCheck, DataDefinition, Definition, Module, _Boundary,
)
from cctt.syntax import (
    C1, I1, K1, T1,
    App, CApp, CForcedTick, CLOCK, CLam, ClockElim, Closure, Comp, Con,
    Constructor,
    Context, DFix, Diamond, EClock, EIVar, ETick, EVar, ElimCase,
    ForceApp, Forall, Fst, HComp, Hit, HitSignature, IVAL, K0, Lam, Later,
    PApp, PFix, PLam, Pair, PathT, Pi, Sigma, Snd, System, TERM, TICK,
    Substitution, Telescope, Term, Tick, TickApp, TickLam, TickVar, Tirr,
    TopRef, Trans, U, Var, ZERO, _CASES, _CLK, _IVL, _IVLS, _PARTS, _SAME,
    _SUB, _SUBS, _TCK, _WALKED, _shift_subst, closure_equal, loose_bound,
    structural_equal, subst, weaken,
)
from cctt.ticks import apply_mask, bind, force, lookup_clock
from oracles import Renamer, reference_term_type, timeless
from test_acceptance import _instances
from test_ticks import _Terms, generated_case

i0 = IVar(0)


def test_weaken_shifts_only_matching_sort():
    t = App(Var(1), PApp(Var(0), IVar(0)))
    assert weaken(t, T1) == App(Var(2), PApp(Var(1), IVar(0)))
    assert weaken(t, I1) == App(Var(1), PApp(Var(0), IVar(1)))
    assert weaken(t, C1) == t


def test_weaken_respects_binders():
    t = Lam(App(Var(0), Var(1)))
    assert weaken(t, T1) == Lam(App(Var(0), Var(2)))


def test_weaken_cut_keeps_inner_entries():
    # One interval variable sits between the term and the insertion point.
    t = PApp(Var(0), IMeet(IVar(0), IVar(1)))
    got = weaken(t, I1, I1)
    assert got == PApp(Var(0), IMeet(IVar(0), IVar(2)))


def test_weaken_tick_binders():
    t = TickLam(0, TickApp(Var(0), TickVar(1)))
    assert weaken(t, K1) == TickLam(0, TickApp(Var(0), TickVar(2)))
    assert weaken(t, C1) == TickLam(1, TickApp(Var(0), TickVar(1)))


def test_structural_equal_normalizes_interval_leaves():
    assert structural_equal(PApp(Var(0), INeg(INeg(i0))),
                            PApp(Var(0), i0))
    assert not structural_equal(PApp(Var(0), IMeet(i0, INeg(i0))),
                                PApp(Var(0), IZERO))


def test_structural_equal_is_syntactic_on_binders():
    assert structural_equal(Lam(Var(0)), Lam(Var(0)))
    assert not structural_equal(Lam(Var(0)), Lam(Var(1)))


class _LeafRewriting(Renamer):
    """The identity renaming, except that each interval variable, bound
    ones too, becomes a random expression (most of them equal to it) and
    each face is built again with its joins and meets taken in reverse
    order."""

    def __init__(self, rng):
        super().__init__()
        self.rng = rng

    def iv(self, x, d):
        if type(x) is Face:
            return _rebuilt_backwards(x)
        return iv_map_vars(x, self._variable)

    def _variable(self, ix):
        i = IVar(ix)
        return self.rng.choice(
            (i, INeg(INeg(i)), IMeet(i, i), INeg(i), IMeet(i, INeg(i)))
        )


def _rebuilt_backwards(phi):
    out = FBOT
    for clause in sorted(phi, key=sorted, reverse=True):
        meet = FTOP
        for ix, end in sorted(clause, reverse=True):
            meet = FAnd(meet, FEq(ix, end))
        out = FOr(out, meet)
    return out


def test_structural_equal_agrees_with_canonical_forms():
    # Interval expressions and faces are normal forms, so a term is its own
    # canonical form and structural equality is `==`.
    rng = random.Random(5)
    ends = FOr(FEq(0, 0), FOr(FEq(0, 1), FAnd(FEq(1, 0), FEq(0, 1))))
    terms = []
    for _ in range(40):
        for _, t, ty in _instances(rng):
            # The instance, its weakenings, and a composition that gives it
            # a face and an interval binder; then copies of each with their
            # leaves rewritten.
            group = [t, weaken(t, T1), weaken(t, I1),
                     Comp(weaken(ty, I1), ends, weaken(t, I1), t)]
            group += [_LeafRewriting(rng).term(u) for u in group]
            terms.append(group)
    seen = set()
    for group in terms:
        others = [u for g in rng.sample(terms, 3) for u in g]
        for t in group:
            for u in group + others:
                want = t == u
                assert structural_equal(t, u) == want, (t, u)
                seen.add((want, t is u))
    assert seen == {(True, True), (True, False), (False, False)}


def test_structural_equal_walks_deep_spines():
    def spines(head, depth):
        fn = arg = head
        for _ in range(depth):
            fn, arg = App(fn, Var(1)), App(Var(1), arg)
        return App(fn, arg)

    assert structural_equal(spines(Var(0), 5000), spines(Var(0), 5000))
    assert not structural_equal(spines(Var(0), 5000), spines(Var(2), 5000))


def _mutants(x):
    """Every copy of x with one node changed: a variable, clock or tick
    variable index moved by one, the diamond made a tick variable, an
    interval expression or face replaced by an endpoint, or a subterm
    replaced by U1."""
    if isinstance(x, Term) and x != U(1):
        yield U(1)
    if type(x) is int:
        yield x + 1
    elif type(x) is Diamond:
        yield TickVar(0)
    elif isinstance(x, Face):
        yield FBOT if x == FTOP else FTOP
    elif isinstance(x, frozenset):
        yield IZERO if x == IONE else IONE
    elif type(x) is tuple:
        for k, y in enumerate(x):
            for z in _mutants(y):
                yield x[:k] + (z,) + x[k + 1:]
    elif hasattr(type(x), "_fields"):
        fields = [getattr(x, name) for name in x._fields]
        for k, y in enumerate(fields):
            for z in _mutants(y):
                yield type(x)(*fields[:k], z, *fields[k + 1:])


def _with_closure_payloads(sigma, shift):
    """sigma with each term payload pending, as a closure, on the identity
    of sigma's scope or on a shift by `shift`."""
    terms = tuple(
        Closure(p, subst(sigma.scope) if k % 2 else _shift_subst(shift, ZERO))
        for k, p in enumerate(sigma.block[0]))
    return Substitution(sigma.scope, (terms,) + sigma.block[1:], sigma.shift)


@pytest.mark.parametrize("seed", range(20))
def test_closure_equal_is_structural_equal_of_the_materialised_terms(seed):
    # Random terms under random environments, with term, clock, forcing
    # tick and interval payloads, the term payloads also as closures; and
    # a shift pending on a term, as `term_type` leaves it.  Compared with
    # the materialised term, with single-node mutants of it, and with
    # closures of single-node mutants of the term.
    rng = random.Random(seed)
    t, sigma, _ = generated_case(seed)
    m = sigma.apply(t)
    by = tuple(rng.randrange(2) for _ in range(4))
    cases = [(t, lambda: sigma),
             (t, lambda: _with_closure_payloads(sigma, by)),
             (m, lambda: _shift_subst(by, ZERO))]
    for body, env in cases:
        want = env().apply(body)
        assert closure_equal(Closure(body, env()), want)
        assert closure_equal(want, Closure(body, env()))
        assert closure_equal(Closure(body, env()), Closure(body, env()))
        mutants = list(_mutants(want))
        for x in rng.sample(mutants, min(25, len(mutants))):
            same = structural_equal(want, x)
            assert closure_equal(Closure(body, env()), x) == same, x
            assert closure_equal(x, Closure(body, env())) == same, x
        mutants = list(_mutants(body))
        for x in rng.sample(mutants, min(25, len(mutants))):
            try:
                got = env().apply(x)
            except CcttError:
                continue   # an ill-scoped mutant has no materialisation
            same = structural_equal(got, want)
            assert closure_equal(Closure(x, env()), want) == same, x
            assert closure_equal(Closure(x, env()),
                                 Closure(body, env())) == same, x


@pytest.mark.parametrize("seed", range(20))
def test_term_type_materialises_as_the_renamed_entry_type(seed):
    # Random contexts: entries of every sort, term entries of random types
    # scoped in the entries before them, restrictions, and contexts built
    # from entries (the timeless part), pushed onto in turn.  Each term
    # variable's type, materialised, is its entry's type renamed to the
    # end, on the context and on one built afresh from its entries.
    rng = random.Random(seed)
    gen = _Terms(rng)
    ctx = Context((EClock(),))
    for _ in range(30):
        step = rng.randrange(8)
        if step < 4:
            ty = gen.term(list(ctx.counts), depth=3)
            ctx = ctx.push((EVar(ty), EClock(), ETick(0), EIVar())[step])
        elif step < 6:
            ctx = ctx.push(EVar(gen.term(list(ctx.counts), depth=3)))
        elif step == 6:
            ctx = ctx.restrict(FEq(0, 1) if ctx.counts[3] else FBOT)
        else:
            ctx = timeless(ctx)
        for c in (ctx, Context(ctx.entries, ctx.restriction)):
            for ix in range(ctx.counts[0]):
                assert structural_equal(force(c.term_type(ix)),
                                        reference_term_type(c, ix))
        with pytest.raises(IndexError):
            ctx.term_type(ctx.counts[0])


def test_cached_bound_is_no_part_of_the_term():
    def build():
        return Lam(App(PApp(Var(1), IMeet(i0, IVar(2))),
                       TickApp(Var(0), TickVar(0))))

    cached, fresh = build(), build()
    shown = repr(cached)
    assert loose_bound(cached) == (1, 0, 1, 3)
    assert vars(cached) != vars(fresh)   # only one holds its bound
    assert structural_equal(cached, fresh)
    assert structural_equal(fresh, cached)
    assert cached == fresh and fresh == cached
    assert hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh) == shown
    assert not structural_equal(cached, build().body)


def test_weaken_returns_a_term_it_cannot_move():
    t = Lam(App(Var(0), PApp(Var(1), IVar(0))))
    assert weaken(t, (0, 1, 1, 0)) is t
    assert weaken(t, T1, T1) is t
    assert weaken(t, T1) == Lam(App(Var(0), PApp(Var(2), IVar(0))))
    assert weaken(t, I1, I1) is t
    assert weaken(t, I1) == Lam(App(Var(0), PApp(Var(1), IVar(1))))


def test_context_positions_and_types():
    ctx = Context((
        EClock(),
        EVar(U(0)),
        ETick(0),
        EIVar(),
        EVar(Pi(U(0), U(0))),
    ))
    assert ctx.counts == (2, 1, 1, 1)
    assert ctx.term_type(0) == Pi(U(0), U(0))
    assert ctx.term_type(1) == U(0)
    assert ctx.tick_clock(0) == 0


def test_tick_clock_counts_intervening_clocks():
    ctx = Context((EClock(), ETick(0), EClock(), ETick(0)))
    # The outer tick's clock gains an index for the clock bound after it.
    assert ctx.tick_clock(1) == 1
    assert ctx.tick_clock(0) == 0


def test_tick_clock_of_the_clock_constant_is_the_constant():
    ctx = Context((ETick(K0), EClock(), ETick(0), EClock()))
    assert ctx.tick_clock(1) == K0
    assert ctx.tick_clock(0) == 1


def _k0_term(x, k, a, i):
    """The clock constant in each place a clock goes, under a binder of
    each sort, next to the free variables x (term), k (clock), a (tick) and
    i (interval), so that a walk reaches every place."""
    k = k if k == K0 else k + 1
    x, a, i = Var(x + 1), TickVar(a + 1), IVar(i + 1)
    parts = (CApp(x, K0), CApp(x, k), DFix(K0, x), PFix(K0, x),
             Later(K0, PApp(x, i)), TickLam(K0, TickApp(x, TickVar(0))),
             TickApp(x, a), ForceApp(CApp(x, k if k == K0 else k + 1), K0, a))
    return Lam(CLam(TickLam(K0, PLam(Hit("h", parts)))))


@pytest.mark.parametrize("sort", [TERM, CLOCK, TICK, IVAL])
def test_clock_constant_comes_through_weakening(sort):
    by = tuple(int(s == sort) for s in (TERM, CLOCK, TICK, IVAL))
    assert weaken(_k0_term(0, 0, 0, 0), by) == _k0_term(*by)


def test_clock_constant_comes_through_substitution():
    # Each sort's variable 0 goes to its variable 1.
    sigma = subst((2, 2, 2, 2), terms=(Var(1),), clocks=(1,),
                  ticks=(TickVar(1),), ivals=(IVar(1),))
    assert sigma.apply(_k0_term(0, 0, 0, 0)) == _k0_term(1, 1, 1, 1)


def test_clock_constant_as_a_clock_payload_stays_under_clock_binders():
    # No binder moves the constant, however deep it is substituted.
    assert subst(None, clocks=(K0,)).apply(_k0_term(0, 0, 0, 0)) \
        == _k0_term(0, K0, 0, 0)
    # A forcing tick paired with k0: the tick application it reaches
    # under a clock binder is forced at k0.
    sigma = subst(None, clocks=(K0,), ticks=(CForcedTick(0, Diamond()),))
    assert sigma.apply(CLam(TickApp(Var(0), TickVar(0)))) \
        == CLam(ForceApp(Var(0), K0, Diamond()))


def test_lookup_clock_of_the_clock_constant():
    # Clock 1 goes to k0 and clock 0 to the scope's one clock.
    scope = (0, 1, 0, 0)
    env = bind(bind(None, scope, CLOCK, K0), scope, CLOCK, 0)
    assert lookup_clock(env, K0) == K0
    assert lookup_clock(env, 1) == K0
    assert lookup_clock(env, 0) == 0


def test_term_type_weakens_by_suffix():
    ctx = Context((EVar(U(0)), EVar(Var(0)), EVar(Var(1))))
    # Each entry's payload is shifted past the entries after it, the shift
    # pending on it until it is forced.
    assert type(ctx.term_type(0)) is Closure
    assert force(ctx.term_type(0)) == Var(2)
    assert force(ctx.term_type(1)) == Var(2)


def test_restriction_is_renamed_past_interval_variables():
    # Restricted to (i0 = 1) after one interval variable, then another
    # pushed: the face names the same variable, now i1.
    ctx = Context((EIVar(),)).restrict(FEq(0, 1)).push(EIVar())
    assert ctx.restriction == FEq(1, 1)
    # Other sorts bind no interval variable.
    for entry in (EVar(U(0)), EClock(), ETick(0)):
        assert ctx.push(entry).restriction == FEq(1, 1)
    assert Context().push(EIVar()).restriction == FTOP


def test_restrict_meets_and_shares_what_depends_on_the_entries():
    ctx = Context((EVar(U(0)), EIVar(), EIVar()))
    assert ctx.counts == (1, 0, 0, 2)
    ctx.term_type(0)
    phi = ctx.restrict(FEq(0, 1))
    assert phi.entries is ctx.entries and phi.counts is ctx.counts
    assert phi.restriction == FEq(0, 1) and ctx.restriction == FTOP
    both = phi.restrict(FOr(FEq(1, 0), FEq(0, 0)))
    assert both.restriction == FAnd(FEq(0, 1), FEq(1, 0))
    assert phi.restrict(FEq(0, 0)).restriction == FBOT
    assert phi != ctx and phi == Context(ctx.entries, FEq(0, 1))


def _recount(entries):
    sorts = [syntax.entry_sort(e) for e in entries]
    return tuple(sorts.count(s) for s in (TERM, CLOCK, TICK, IVAL))


@pytest.mark.parametrize("seed", range(20))
def test_counts_carried_along_are_the_counted_ones(seed):
    # Entries of every sort pushed, restrictions, and contexts built from
    # entries (the timeless part, a masked one), pushed onto in turn.
    rng = random.Random(seed)
    ctx = Context()
    for _ in range(40):
        step = rng.randrange(7)
        if step < 4:
            ctx = ctx.push((EVar(U(0)), EClock(), ETick(K0), EIVar())[step])
        elif step == 4:
            ctx = ctx.restrict(FEq(0, 1) if ctx.counts[3] else FBOT)
        else:
            mask = [rng.randrange(2) == 1 for _ in ctx]
            ctx = timeless(ctx) if step == 5 else apply_mask(ctx, mask)
            assert ctx._counts is None   # worked out when first read
        assert ctx.counts == Context(ctx.entries).counts \
            == _recount(ctx.entries)


def test_later_and_ticklam_store_prefix_relative_clock():
    t = Later(0, TickApp(Var(0), TickVar(0)))
    got = weaken(t, C1)
    assert got == Later(1, TickApp(Var(0), TickVar(0)))


def _records():
    """One instance of every record class, built afresh on each call."""
    zero = Con("nat", "zero", (), (), (), ())
    case = ElimCase("zero", 0, 0, 0, Var(0))
    ctor = Constructor("zero", Telescope(), (), 0, FBOT, ())
    sig = HitSignature("nat", Telescope((U(0),)), 0, (ctor,))
    return [
        TickVar(1), Diamond(), Tirr(TickVar(0), TickVar(1), IVar(0)),
        Var(0), U(1), Pi(U(0), Var(0)), Lam(Var(0)), App(Var(1), Var(0)),
        Sigma(U(0), Var(0)), Pair(Var(0), Var(1)), Fst(Var(0)), Snd(Var(0)),
        PathT(U(0), Var(0), Var(1)), PLam(Var(0)), PApp(Var(0), IVar(0)),
        Forall(U(0)), CLam(Var(0)), CApp(Var(0), 0), Later(0, U(0)),
        TickLam(0, Var(0)), TickApp(Var(0), TickVar(0)),
        ForceApp(Var(0), 0, Diamond()), DFix(0, Var(0)), PFix(0, Var(0)),
        Comp(U(0), FEq(0, 1), Var(0), Var(1)),
        HComp(U(0), FEq(0, 1), Var(0), Var(1)),
        Trans(U(0), FEq(0, 1), Var(0)), Hit("nat", (U(0),)),
        Con("nat", "succ", (), (), (zero,), ()), case,
        ClockElim("nat", 0, (), U(0), (case,), zero),
        System(((FEq(0, 1), Var(0)),)), TopRef("f"),
        EVar(U(0)), EClock(), ETick(0), EIVar(),
        Context((EClock(), EVar(U(0)))), CForcedTick(0, Diamond()),
        Telescope((U(0),)), ctor, sig,
        Definition("f", U(0), Var(0), None), DataDefinition(sig, ("FAIL",)),
        ConvCheck("c", U(0), Var(0), Var(1), True), Module(()),
        _Boundary("succ", {"x": (0, 0)}, ()),
    ]


# Each record's repr and field order, as the frozen dataclasses (and the
# named tuple `_Boundary`) the records replaced gave them.
_CTOR = ("Constructor(label='zero', args=Telescope(types=()), rec_arities=(),"
         " ivar_count=0, face=0F, boundary=())")
_SIG = (f"HitSignature(name='nat', params=Telescope(types=(U0,)), level=0,"
        f" constructors=({_CTOR},))")
_RECORD_CONTRACT = [
    ("a1", ("ix",)),
    ("<>", ()),
    ("tirr(a0, a1, i0)", ("left", "right", "at")),
    ("x0", ("ix",)),
    ("U1", ("level",)),
    ("Pi(U0, x0)", ("dom", "cod")),
    ("Lam(x0)", ("body",)),
    ("App(x1, x0)", ("fn", "arg")),
    ("Sigma(U0, x0)", ("fst", "snd")),
    ("Pair(x0, x1)", ("fst", "snd")),
    ("Fst(x0)", ("arg",)),
    ("Snd(x0)", ("arg",)),
    ("PathT(U0, x0, x1)", ("ty", "left", "right")),
    ("PLam(x0)", ("body",)),
    ("PApp(x0, i0)", ("fn", "arg")),
    ("Forall(U0)", ("body",)),
    ("CLam(x0)", ("body",)),
    ("CApp(x0, 0)", ("fn", "clock")),
    ("Later(0, U0)", ("clock", "ty")),
    ("TickLam(0, x0)", ("clock", "body")),
    ("TickApp(x0, a0)", ("fn", "tick")),
    ("ForceApp(x0, 0, <>)", ("fn", "clock", "tick")),
    ("DFix(0, x0)", ("clock", "fn")),
    ("PFix(0, x0)", ("clock", "fn")),
    ("Comp(U0, (i0=1), x0, x1)", ("ty", "face", "tube", "base")),
    ("HComp(U0, (i0=1), x0, x1)", ("ty", "face", "tube", "base")),
    ("Trans(U0, (i0=1), x0)", ("ty", "face", "base")),
    ("Hit('nat', (U0,))", ("name", "params")),
    ("Con('nat', 'succ', (), (), (Con('nat', 'zero', (), (), (), ()),), ())",
     ("name", "label", "params", "args", "recs", "ivals")),
    ("ElimCase('zero', 0, 0, 0, x0)",
     ("label", "n_args", "n_recs", "n_ivars", "body")),
    ("ClockElim('nat', 0, (), U0, (ElimCase('zero', 0, 0, 0, x0),),"
     " Con('nat', 'zero', (), (), (), ()))",
     ("name", "n", "params", "motive", "cases", "arg")),
    ("System((((i0=1), x0),))", ("parts",)),
    ("TopRef('f')", ("name",)),
    ("EVar(ty=U0)", ("ty",)),
    ("EClock()", ()),
    ("ETick(clock=0)", ("clock",)),
    ("EIVar()", ()),
    ("Context(entries=(EClock(), EVar(ty=U0)), restriction=1F)",
     ("entries", "restriction", "_counts")),
    ("CForcedTick(clock=0, tick=<>)", ("clock", "tick")),
    ("Telescope(types=(U0,))", ("types",)),
    (_CTOR, ("label", "args", "rec_arities", "ivar_count", "face",
             "boundary")),
    (_SIG, ("name", "params", "level", "constructors")),
    ("Definition(name='f', ty=U0, body=x0, expect=None)",
     ("name", "ty", "body", "expect")),
    (f"DataDefinition(sig={_SIG}, expect=('FAIL',))", ("sig", "expect")),
    ("ConvCheck(name='c', ty=U0, lhs=x0, rhs=x1, want_equal=True)",
     ("name", "ty", "lhs", "rhs", "want_equal")),
    ("Module(decls=())", ("decls",)),
    ("_Boundary(label='succ', recs={'x': (0, 0)}, params=())",
     ("label", "recs", "params")),
]


def _record_classes():
    return {cls for module in (syntax, parser) for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and "__match_args__" in vars(cls)}


def _fill_caches(x):
    """Fill what a record caches beside its fields."""
    if isinstance(x, Term):
        loose_bound(x)
    elif type(x) is Context:
        x.counts
        x.term_type(0)
    elif type(x) is HitSignature:
        x.constructor("zero")


def test_records_keep_their_repr_fields_and_equality():
    records, twins = _records(), _records()
    assert len(records) == len(_RECORD_CONTRACT)
    assert {type(x) for x in records} == _record_classes()
    for x, y, (shown, names) in zip(records, twins, _RECORD_CONTRACT):
        assert repr(x) == shown
        assert type(x).__match_args__ == names
        for _ in range(2):   # before and after x caches what it caches
            assert x == y and y == x and not x != y
            if type(x) is not _Boundary:   # its recs is a dict
                assert hash(x) == hash(y)
            assert repr(x) == shown
            _fill_caches(x)
    for i, x in enumerate(records):
        for j, y in enumerate(twins):
            assert (x == y) == (i == j), (x, y)


def test_records_cannot_be_assigned():
    for x in _records():
        for name in type(x).__match_args__ or ("extra",):
            before = repr(x)
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
            assert repr(x) == before


def test_records_take_their_fields_by_name_and_default():
    assert App(fn=Var(0), arg=Var(1)) == App(Var(0), Var(1))
    assert Context() == Context(()) and Context().counts == (0, 0, 0, 0)
    assert Context().restriction == FTOP
    assert Telescope().types == ()
    with pytest.raises(TypeError, match="'arg'"):
        App(Var(0))


# The kinds of binder-table entry a field may have, by its annotation; an
# `int` is a clock when the field is named so.
_KINDS = {Term: {_SUB}, Tick: {_TCK}, IExpr: {_IVL}, Face: {_IVL},
          str: {_SAME}, int: {_SAME}, tuple: {_SUBS, _IVLS, _CASES, _PARTS}}


def test_binder_table_describes_every_field_of_every_former():
    # Every term class but the leaves, which know their bound from the
    # start, has a row: one entry per field, of the kind its annotation
    # says, and a count of binders for a subterm only.
    leaves = {Var, U, TopRef}
    assert set(_WALKED) == set(Term.__subclasses__()) - leaves
    for cls in leaves:
        assert "_loose" in vars(cls)
    for cls, row in _WALKED.items():
        assert len(row) == len(cls._fields), cls
        for (kind, by), name in zip(row, cls._fields):
            ann = cls.__annotations__[name]
            want = {_CLK} if ann is int and name == "clock" else _KINDS[ann]
            assert kind in want, (cls, name)
            if kind is _SUB:
                assert len(by) == 4 and sum(by) <= 1, (cls, name)
            else:
                assert by is None, (cls, name)
