import random

from cctt.interval import (
    FAnd, FBOT, FEq, FOr, FTOP, Face, IMeet, INeg, IVar, IZERO, iv_map_vars,
)
from cctt.syntax import (
    App, CLOCK, Comp, Context, EClock, EFace, EIVar, ETick, EVar, IVAL, Lam,
    Later, PApp, PLam, Pi, TERM, TICK, TickApp, TickLam, TickVar, U, Var,
    loose_bound, structural_equal, weaken,
)
from oracles import Renamer
from test_acceptance import _instances

i0 = IVar(0)


def test_weaken_shifts_only_matching_sort():
    t = App(Var(1), PApp(Var(0), IVar(0)))
    assert weaken(t, [TERM]) == App(Var(2), PApp(Var(1), IVar(0)))
    assert weaken(t, [IVAL]) == App(Var(1), PApp(Var(0), IVar(1)))
    assert weaken(t, [CLOCK]) == t


def test_weaken_respects_binders():
    t = Lam(App(Var(0), Var(1)))
    assert weaken(t, [TERM]) == Lam(App(Var(0), Var(2)))


def test_weaken_cut_keeps_inner_entries():
    # One interval variable sits between the term and the insertion point.
    t = PApp(Var(0), IMeet(IVar(0), IVar(1)))
    got = weaken(t, [IVAL], cut={IVAL: 1})
    assert got == PApp(Var(0), IMeet(IVar(0), IVar(2)))


def test_weaken_tick_binders():
    t = TickLam(0, TickApp(Var(0), TickVar(1)))
    assert weaken(t, [TICK]) == TickLam(0, TickApp(Var(0), TickVar(2)))
    assert weaken(t, [CLOCK]) == TickLam(1, TickApp(Var(0), TickVar(1)))


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
            group = [t, weaken(t, [TERM]), weaken(t, [IVAL]),
                     Comp(weaken(ty, [IVAL]), ends, weaken(t, [IVAL]), t)]
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
    assert weaken(t, [CLOCK, TICK]) is t
    assert weaken(t, [TERM], cut={TERM: 1}) is t
    assert weaken(t, [TERM]) == Lam(App(Var(0), PApp(Var(2), IVar(0))))
    assert weaken(t, [IVAL], cut={IVAL: 1}) is t
    assert weaken(t, [IVAL]) == Lam(App(Var(0), PApp(Var(1), IVar(1))))


def test_context_positions_and_types():
    ctx = Context((
        EClock(),
        EVar(U(0)),
        ETick(0),
        EIVar(),
        EVar(Pi(U(0), U(0))),
    ))
    assert ctx.count(TERM) == 2
    assert ctx.count(CLOCK) == 1
    assert ctx.term_type(0) == Pi(U(0), U(0))
    assert ctx.term_type(1) == U(0)
    assert ctx.tick_clock(0) == 0


def test_tick_clock_counts_intervening_clocks():
    ctx = Context((EClock(), ETick(0), EClock(), ETick(0)))
    # The outer tick's clock gains an index for the clock bound after it.
    assert ctx.tick_clock(1) == 1
    assert ctx.tick_clock(0) == 0


def test_term_type_weakens_by_suffix():
    ctx = Context((EVar(U(0)), EVar(Var(0)), EVar(Var(1))))
    # Each entry's payload is shifted past the entries after it.
    assert ctx.term_type(0) == Var(2)
    assert ctx.term_type(1) == Var(2)


def test_restriction_faces_shift_to_full_context():
    ctx = Context((EIVar(), EFace(FEq(0, 1)), EIVar()))
    assert ctx.restriction_faces() == [FEq(1, 1)]


def test_later_and_ticklam_store_prefix_relative_clock():
    t = Later(0, TickApp(Var(0), TickVar(0)))
    got = weaken(t, [CLOCK])
    assert got == Later(1, TickApp(Var(0), TickVar(0)))
