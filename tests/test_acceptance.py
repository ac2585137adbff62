"""Top-level acceptance gate: one test per criterion, each ending in a
single printed pass/fail line."""

import random
import time
from itertools import product
from pathlib import Path

import pytest

from cctt.checker import CheckState, check, infer
from cctt.__main__ import main
from cctt.cli import Report, check_file
from cctt.conversion import conv, whnf
from cctt.errors import FuelExhausted
from cctt.interval import (
    FAnd, FEq, FTOP, INeg, IVar, IZERO, IONE, face_entails, face_is_false,
)
from cctt.syntax import (
    App, CApp, CLam, ClockElim, Con, Context, DFix, Diamond,
    EClock, EIVar, ETick, EVar, ElimCase, ForceApp, Forall, HComp, Hit, K0,
    Lam, Later, PApp, PLam, PathT, Pi, TickApp, TickLam, TickVar, TopRef, U,
    Var, I1, T1, subst, weaken,
)
from cctt.ticks import subst_apply
from oracles import (
    TBOT, TONE, TTOP, TZERO, dm4_equal, face_entails_oracle, iv_tree,
    kernel_face, kernel_iv,
)
from test_checker import (
    circle_signature, nat_add, nat_num, nat_signature, powerset_signature,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
EMPTY = Context()


def report(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


def run_module(src, max_steps=1_000_000):
    rep = Report()
    check_file("<module>", src, max_steps, rep)
    return rep


def all_pass(rep):
    return rep.failed == 0 and all(s == "PASS" for s, _, _ in rep.lines)


# -- criterion 1: interval equality against the De Morgan oracle -----------

# Expressions are drawn as the oracle's trees; the kernel builds its own
# normal form from each tree.

def _iv_pool(depth, n_vars):
    pool = [TZERO, TONE] + [("var", n) for n in range(n_vars)]
    for _ in range(depth):
        prev = list(pool)
        pool += [("neg", r) for r in prev[:40]]
        pool += [("meet", a, b) for a, b in product(prev[:12], prev[:12])]
        pool += [("join", a, b) for a, b in product(prev[:12], prev[:12])]
    return pool


def _iv_random(rng, depth, n_vars):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(
            [TZERO, TONE] + [("var", n) for n in range(n_vars)]
        )
    match rng.randrange(3):
        case 0:
            return ("neg", _iv_random(rng, depth - 1, n_vars))
        case 1:
            return ("meet", _iv_random(rng, depth - 1, n_vars),
                    _iv_random(rng, depth - 1, n_vars))
        case _:
            return ("join", _iv_random(rng, depth - 1, n_vars),
                    _iv_random(rng, depth - 1, n_vars))


def _iv_agrees(r, s):
    # Equal normal forms iff equal in DM4; each normal form equals its tree.
    kr, ks = kernel_iv(r), kernel_iv(s)
    return ((kr == ks) == dm4_equal(r, s)
            and dm4_equal(r, iv_tree(kr)) and dm4_equal(s, iv_tree(ks)))


def test_criterion_1_interval_oracle():
    start = time.perf_counter()
    small = _iv_pool(1, 2)
    ok = all(_iv_agrees(r, s) for r, s in product(small, repeat=2))
    rng = random.Random(11)
    for _ in range(30_000):
        r = _iv_random(rng, 4, 3)
        s = _iv_random(rng, 4, 3)
        if not _iv_agrees(r, s):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(1, "interval vs De Morgan oracle", ok and elapsed < 30)


# -- criterion 2: face entailment against the valuation oracle -------------

# Faces are drawn as the oracle's trees; the kernel builds its own face
# from each tree.

def _face_random(rng, depth):
    gens = [TBOT, TTOP] + [("eq", n, b) for n in range(3) for b in (0, 1)]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(gens)
    op = "and" if rng.randrange(2) else "or"
    return (op, _face_random(rng, depth - 1), _face_random(rng, depth - 1))


def _entails_agrees(p, q):
    return (face_entails(kernel_face(p), kernel_face(q))
            == face_entails_oracle(p, q))


def test_criterion_2_face_oracle():
    start = time.perf_counter()
    gens = [("eq", n, b) for n in range(3) for b in (0, 1)]
    conjs = [TTOP, TBOT]
    for bits in product((0, 1), repeat=6):
        phi = TTOP
        for g, b in zip(gens, bits):
            if b:
                phi = ("and", phi, g)
        conjs.append(phi)
    ok = all(_entails_agrees(p, q) for p, q in product(conjs, repeat=2))
    rng = random.Random(23)
    for _ in range(5_000):
        p = _face_random(rng, 3)
        q = _face_random(rng, 3)
        if not _entails_agrees(p, q):
            ok = False
            break
    ok = ok and face_is_false(FAnd(FEq(0, 0), FEq(0, 1)))
    elapsed = time.perf_counter() - start
    report(2, "faces vs valuation oracle", ok and elapsed < 10)


# -- criterion 3: the judgemental equality suite ---------------------------

EQUALITY_SUITE = """
def constU (A : U0) : forall k. (|> (a : k) U0) -> U0 := /\\k. \\X. A -> A

def constf (A : U0) (x : A) : forall k. (|> (a : k) A) -> A :=
  /\\k. \\y. x

def idf (A : U0) (x : A) : A := x
def delay (A : U0) (x : A) : forall k. A := /\\k. x
def later0 (A : U0) (x : A) : |> (a : k0) A := tick a : k0. x
def mkarrow (X : U0) : U0 := X -> X

--expect-conv \\A. \\y. idf A y = \\A. \\y. y : (A : U0) -> A -> A
--expect-not-conv \\A. \\y. \\z. idf A y = \\A. \\y. \\z. z
  : (A : U0) -> A -> A -> A

--expect-conv \\A. \\B. \\f. \\x. f x = \\A. \\B. \\f. f
  : (A : U0) -> (B : U0) -> (A -> B) -> A -> B
--expect-not-conv \\A. \\f. \\x. f (f x) = \\A. \\f. f
  : (A : U0) -> (A -> A) -> A -> A

--expect-conv \\A. \\x. delay A x {k0} = \\A. \\x. x : (A : U0) -> A -> A
--expect-not-conv \\A. \\x. \\y. delay A x {k0} = \\A. \\x. \\y. y
  : (A : U0) -> A -> A -> A

--expect-conv \\A. \\x. /\\k. x {k} = \\A. \\x. x
  : (A : U0) -> (forall k. A) -> forall k. A
--expect-not-conv \\A. \\x. \\y. /\\k. x {k} = \\A. \\x. \\y. y
  : (A : U0) -> (forall k. A) -> (forall k. A) -> forall k. A

--expect-conv \\A. \\x. tick b : k0. (later0 A x) [b]
  = \\A. \\x. tick b : k0. x : (A : U0) -> A -> |> (b : k0) A
--expect-not-conv \\A. \\x. \\y. tick b : k0. (later0 A x) [b]
  = \\A. \\x. \\y. tick b : k0. y
  : (A : U0) -> A -> A -> |> (b : k0) A

--expect-conv \\A. \\x. tick a : k0. x [a] = \\A. \\x. x
  : (A : U0) -> (|> (a : k0) A) -> |> (a : k0) A
--expect-not-conv \\A. \\x. \\y. tick a : k0. x [a] = \\A. \\x. \\y. y
  : (A : U0) -> (|> (a : k0) A) -> (|> (a : k0) A) -> |> (a : k0) A

--expect-conv \\A. \\x. \\y. \\p. p @ 0 = \\A. \\x. \\y. \\p. x
  : (A : U0) -> (x : A) -> (y : A) -> (p : Path A x y) -> A
--expect-not-conv \\A. \\x. \\y. \\p. p @ 1 = \\A. \\x. \\y. \\p. x
  : (A : U0) -> (x : A) -> (y : A) -> (p : Path A x y) -> A

--expect-conv \\A. (k. dfix k (constU A {k})) [k0, <>] = \\A. A -> A
  : U0 -> U0
--expect-not-conv \\A. (k. dfix k (constU A {k})) [k0, <>]
  = \\A. A -> A -> A : U0 -> U0

--expect-conv \\A. \\x. /\\k. ((k'. pfix k' (constf A x {k'})) [k, <>]) @ 0
  = \\A. \\x. /\\k. x : (A : U0) -> (x : A) -> forall k. A
--expect-not-conv
  \\A. \\x. \\y. /\\k. ((k'. pfix k' (constf A x {k'})) [k, <>]) @ 0
  = \\A. \\x. \\y. /\\k. y
  : (A : U0) -> (x : A) -> (y : A) -> forall k. A

--expect-conv \\A. \\x. /\\k. tick b : k. (k'. x {k'}) [k, tirr(<>, b, 0)]
  = \\A. \\x. /\\k. tick b : k. (k'. x {k'}) [k, <>]
  : (A : U0) -> (forall k. |> (a : k) A) -> forall k. |> (b : k) A
--expect-conv \\A. \\x. /\\k. tick b : k. (k'. x {k'}) [k, tirr(<>, b, 1)]
  = \\A. \\x. /\\k. tick b : k. x {k} [b]
  : (A : U0) -> (forall k. |> (a : k) A) -> forall k. |> (b : k) A
--expect-not-conv
  \\A. \\x. /\\k. tick b : k. (k'. x {k'}) [k, tirr(<>, b, 0)]
  = \\A. \\x. /\\k. tick b : k. x {k} [b]
  : (A : U0) -> (forall k. |> (a : k) A) -> forall k. |> (b : k) A

--expect-conv
  \\A. \\x. /\\k. <i> (k'. x {k'}) [k, tirr(<>, <>, i)]
  = \\A. \\x. /\\k. <i> (k'. x {k'}) [k, <>]
  : (A : U0) -> (x : forall k. |> (a : k) A)
    -> forall k. Path A ((k'. x {k'}) [k, <>]) ((k'. x {k'}) [k, <>])

--expect-conv \\A. mkarrow A = \\A. A -> A : U0 -> U0
--expect-not-conv \\A. mkarrow A = \\A. A -> A -> A : U0 -> U0
"""


def test_criterion_3_equality_suite():
    rep = run_module(EQUALITY_SUITE)
    report(3, "judgemental equality suite", all_pass(rep))


# -- criterion 4: the guardedness gate -------------------------------------

GUARDEDNESS_SUITE = """
data nat : U0 where
  | zero
  | succ (m : nat)

def strf : forall k. (|> (a : k) U0) -> U0 :=
  /\\k. \\X. nat -> |> (a : k) (X [a])

--expect-conv (k. dfix k (strf {k})) [k0, <>]
  = strf {k0} (dfix k0 (strf {k0})) : U0

--expect-not-conv dfix k0 (strf {k0})
  = tick a : k0. strf {k0} (dfix k0 (strf {k0})) : |> (a : k0) U0

--expect-not-conv tick a : k0. (dfix k0 (strf {k0})) [a]
  = tick a : k0. strf {k0} (dfix k0 (strf {k0})) : |> (a : k0) U0
"""


def test_criterion_4_guardedness_gate():
    rep = run_module(GUARDEDNESS_SUITE)
    ok = all_pass(rep)
    state = CheckState(max_steps=5_000)
    state.definitions["loop"] = (
        U(0), ForceApp(DFix(0, Lam(TopRef("loop"))), K0, Diamond())
    )
    try:
        whnf(state, EMPTY, TopRef("loop"))
        ok = False
    except FuelExhausted:
        pass
    report(4, "guardedness gate", ok)


# -- criteria 5-7: corpus slices through the command line ------------------

def _corpus_slice_passes(subdir, capsys):
    code = main(["check", "--corpus", str(CORPUS / subdir)])
    out = capsys.readouterr().out
    print(out, end="")
    lines = [ln for ln in out.splitlines()
             if ln.startswith(("PASS", "FAIL", "SKIP"))]
    return code == 0 and lines and all(ln.startswith("PASS") for ln in lines)


def test_criterion_5_tick_corpus(capsys):
    report(5, "tick and forcing corpus", _corpus_slice_passes("03-ticks", capsys))


def test_criterion_6_hit_corpus(capsys):
    ok = _corpus_slice_passes("05-hits", capsys)
    code = main([
        "check",
        str(CORPUS / "neg" / "forward-constructor-reference.cctt"),
        str(CORPUS / "neg" / "boundary-not-covering.cctt"),
    ])
    out = capsys.readouterr().out
    print(out, end="")
    ok = ok and code == 0 and "FAIL" not in out
    report(6, "higher inductive signatures", ok)


def test_criterion_7_induction_under_clocks(capsys):
    ok = _corpus_slice_passes("05-induction-under-clocks", capsys)

    # The eliminator commutes with hcomp into a composition in the motive.
    state = CheckState()
    state.signatures["s1"] = circle_signature()
    ctx = EMPTY.push(EIVar())
    phi = FEq(0, 0)
    base = Con("s1", "base", (), (), (), ())
    loop_j = Con("s1", "loop", (), (), (), (IVar(0),))
    cases = (
        ElimCase("base", 0, 0, 0, base),
        ElimCase("loop", 0, 0, 1, Con("s1", "loop", (), (), (), (IVar(0),))),
    )

    def elim(x):
        return ClockElim("s1", 0, (), Hit("s1", ()), cases, x)

    scrut = HComp(Hit("s1", ()), phi, loop_j, base)
    rhs = HComp(Hit("s1", ()), phi, elim(loop_j), elim(base))
    ok = ok and conv(state, ctx, Hit("s1", ()), elim(scrut), rhs)

    # n = 0 arithmetic: 2 + 2 computes to 4.
    state2 = CheckState()
    state2.signatures["nat"] = nat_signature()
    four = nat_add(nat_num(2), nat_num(2))
    ok = ok and conv(state2, EMPTY, Hit("nat", ()), four, nat_num(4))
    report(7, "induction under clocks", ok)


# -- criterion 8: the boundary-term calculus -------------------------------

def test_criterion_8_boundary_calculus():
    sig = powerset_signature()
    idem = sig.constructor("idem")
    piece0 = idem.boundary[0][1]  # union of the recursive argument
    piece1 = idem.boundary[1][1]  # the recursive argument itself

    # Identity instantiation, in idem's own scope (the parameter, the
    # recursive argument and the interval binder), returns each piece
    # unchanged.
    own = subst((2, 0, 0, 1), terms=(Var(1), Var(0)), ivals=(IVar(0),))
    ok = subst_apply(own, piece0) == piece0
    ok = ok and subst_apply(own, piece1) == piece1

    # Endpoint reductions of the idempotence constructor fire its pieces.
    state = CheckState()
    state.signatures["pf"] = sig
    ctx = EMPTY.push(EVar(U(0))).push(EVar(Hit("pf", (Var(0),))))
    x = Var(0)
    union_xx = Con("pf", "union", (Var(1),), (), (x, x), ())
    at0 = Con("pf", "idem", (Var(1),), (), (x,), (IZERO,))
    at1 = Con("pf", "idem", (Var(1),), (), (x,), (IONE,))
    ok = ok and whnf(state, ctx, at0) == union_xx
    ok = ok and whnf(state, ctx, at1) == x

    # An hcomp on the true face reduces to its tube at 1.
    ty = Hit("pf", (Var(1),))
    at_i = Con("pf", "idem", (Var(1),), (), (x,), (IVar(0),))
    ok = ok and whnf(state, ctx, HComp(ty, FTOP, at_i, union_xx)) == x

    # The same endpoint laws hold judgementally.
    ok = ok and conv(state, ctx, ty, at0, union_xx)
    ok = ok and conv(state, ctx, ty, at1, x)
    report(8, "boundary calculus", ok)


# -- criterion 9: meta-properties at desk scale ----------------------------

def _instances(rng):
    """A stream of (ctx, term, type) triples."""
    a = U(0)
    match rng.randrange(4):
        case 0:
            m, n = rng.randrange(4), rng.randrange(4)
            yield EMPTY, nat_add(nat_num(m), nat_num(n)), Hit("nat", ())
        case 1:
            ctx = EMPTY.push(EVar(a)).push(EVar(Var(0)))
            t = Var(0)
            for _ in range(rng.randrange(1, 5)):
                t = App(App(TopRef("idf"), Var(1)), t)
            yield ctx, t, Var(1)
        case 2:
            ctx = (EMPTY.push(EVar(a)).push(EVar(Var(0)))
                   .push(EVar(Var(1)))
                   .push(EVar(PathT(Var(2), Var(1), Var(0))))
                   .push(EIVar()))
            r = rng.choice([IZERO, IONE, IVar(0), INeg(IVar(0))])
            yield ctx, PApp(Var(0), r), Var(3)
        case 3:
            ctx = (EMPTY.push(EVar(a))
                   .push(EVar(Forall(Later(0, Var(0)))))
                   .push(EClock()))
            t = ForceApp(CApp(Var(0), 0), 0, Diamond())
            yield ctx, t, Var(1)


def test_criterion_9_meta_properties(capsys):
    rng = random.Random(7)
    sr = wk = 0
    ok = True
    while sr < 200 or wk < 200:
        for ctx, t, ty in _instances(rng):
            state = CheckState(max_steps=200_000)
            state.signatures["nat"] = nat_signature()
            state.definitions["idf"] = (
                Pi(U(0), Pi(Var(0), Var(1))), Lam(Lam(Var(0)))
            )
            try:
                got = infer(state, ctx, t)
                check(state, ctx, t, ty)
                # Subject reduction: the weak-head reduct keeps the type.
                check(state, ctx, whnf(state, ctx, t), got)
                sr += 1
                # Weakening: a fresh entry changes nothing.
                by = T1 if rng.randrange(2) else I1
                wctx = ctx.push(EVar(U(0)) if by is T1 else EIVar())
                check(state, wctx, weaken(t, by), weaken(ty, by))
                wk += 1
            except FuelExhausted:
                ok = False
    start = time.perf_counter()
    code = main(["check", "--corpus", str(CORPUS)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    ok = ok and code == 0 and elapsed < 60 and sr >= 200 and wk >= 200
    report(9, "subject reduction, weakening, corpus time", ok)
