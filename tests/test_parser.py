import contextlib
import io
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cctt.cli import Report, check_file
from cctt.errors import FaceTooLarge, ParseError, UnboundVariable
from cctt.interval import FEq, FOr, IVar, IZERO
from cctt.parser import (
    RESERVED, ConvCheck, DataDefinition, Definition, Module, parse_module,
    position, print_module, surface_module, token_kind, tokenize,
)
from cctt.syntax import (
    App, CApp, CLam, Comp, Con, DFix, Diamond, ElimCase,
    ForceApp, Forall, Hit, K0, Lam, Later, PApp, PLam, PathT, Pi, System,
    TickApp, TickLam, TickVar, Tirr, TopRef, U, Var,
)
from oracles import kernel_iv, load_workloads, reference_tokenize
from test_acceptance import _iv_random

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


workloads = load_workloads()


def one_def(src):
    mod = parse_module(src)
    assert len(mod.decls) == 1
    return mod.decls[0]


class TestTokenizer:
    def test_pragmas_beat_comments(self):
        toks = tokenize("--expect-pass\n-- a comment\nx")
        assert toks == ["--expect-pass", "x", ""]
        assert list(map(token_kind, toks)) == ["pragma", "ident", "eof"]

    def test_symbols(self):
        toks = tokenize(r"-> := => /\ \/ |> <> < >")
        assert toks == ["->", ":=", "=>", "/\\", "\\/", "|>", "<>", "<", ">",
                        ""]
        assert {token_kind(tok) for tok in toks[:-1]} == {"sym"}

    def test_positions(self):
        text = "ab\n  cd"
        assert tokenize(text) == ["ab", "cd", ""]
        assert position(text, 0) == (1, 1)
        assert position(text, 1) == (2, 3)
        assert position(text, 2) == (2, 5)

    def test_bad_character(self):
        with pytest.raises(ParseError) as err:
            tokenize("a ? b")
        assert str(err.value) == "1:3: unexpected character '?'"

    def test_earliest_bad_character_is_reported(self):
        # Two bad characters, each also after the other, and one in a
        # comment before both.
        text = "x\n-- ? in a comment\n  y $ z ? $"
        with pytest.raises(ParseError) as err:
            tokenize(text)
        assert str(err.value) == "3:5: unexpected character '$'"
        _assert_tokens_agree(text)

    def test_comment_after_blank_lines_at_the_start(self):
        text = "\n\n  -- a comment\r\n\tdef"
        assert tokenize(text) == ["def", ""]
        assert position(text, 0) == (4, 2)
        _assert_tokens_agree(text)


def _assert_tokens_agree(text, every=True):
    """tokenize and position agree with reference_tokenize on text: the
    same error, or the same values, kinds, lines and columns.  Unless
    every, long texts have their positions checked at a stride, since each
    position is worked out by scanning the text up to its token."""
    try:
        ref = reference_tokenize(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            tokenize(text)
        assert str(got.value) == str(err)
        return
    toks = tokenize(text)
    assert toks == [t.value for t in ref]
    assert list(map(token_kind, toks)) == [t.kind for t in ref]
    step = 1 if every or len(toks) <= 1000 else len(toks) // 100
    for i in [*range(0, len(toks), step), len(toks) - 2, len(toks) - 1]:
        if i >= 0:
            assert position(text, i) == (ref[i].line, ref[i].col), i


@pytest.mark.parametrize("path", sorted(CORPUS.rglob("*.cctt")),
                         ids=lambda p: p.relative_to(CORPUS).as_posix())
def test_tokens_agree_with_reference_on_corpus(path):
    _assert_tokens_agree(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", ["corpus", "reduce", "scale"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tokens_agree_with_reference_on_generated_inputs(workload, seed):
    for inp in getattr(workloads, workload)(seed, ROOT):
        _assert_tokens_agree(inp.text, every=False)


# Pieces of random tokenizer input: tokens, blanks, comments and pragma-like
# comments, non-ASCII letters and bad characters.
TEXT_PIECES = [
    "x", "y'", "_a1", "U0", "12", "0", "def", "->", ":=", "=>", "/\\",
    "\\/", "|>", "<>", "(", ")", "[", "]", "{", "}", "<", ">", ",", ".",
    ":", "=", "|", "^", "@", "~", "\\", "-", "/", " ", "  ", "\t", "\n",
    "\r\n", "\r", "\n\n", "-- a comment", "--", "---", "--expect-pass",
    "--expect-fail", "--expect-conv", "--expect-not-conv", "--expect-",
    "--expect-other", "--expect-passive", "-- --expect-pass", "\u00e9",
    "caf\u00e9", "\x0c", "\xa0", "\u2028", "?", "$",
]


def test_tokens_agree_with_reference_on_random_texts():
    rng = random.Random(15)
    bad = 0
    for _ in range(3000):
        text = "".join(rng.choice(TEXT_PIECES)
                       for _ in range(rng.randrange(1, 25)))
        try:
            reference_tokenize(text)
        except ParseError:
            bad += 1
        _assert_tokens_agree(text)
    assert 300 < bad < 2700  # both outcomes are exercised


class TestTerms:
    def test_identity(self):
        d = one_def("def id (A : U0) (x : A) : A := x")
        assert d.ty == Pi(U(0), Pi(Var(0), Var(1)))
        assert d.body == Lam(Lam(Var(0)))

    def test_group_binders(self):
        d = one_def("def k (A B : U0) (x : A) (y : B) : A := x")
        assert d.ty == Pi(U(0), Pi(U(0), Pi(Var(1), Pi(Var(1), Var(3)))))

    def test_nondependent_arrow(self):
        d = one_def("def t : U1 := U0 -> U0")
        assert d.body == Pi(U(0), U(0))

    def test_path_and_papp(self):
        d = one_def(
            "def r (A : U0) (x : A) (p : Path A x x) : A := p @ 0"
        )
        assert d.ty.cod.cod.dom == PathT(Var(1), Var(0), Var(0))
        assert d.body.body.body.body == PApp(Var(0), IZERO)

    def test_path_lambda_interval_ops(self):
        d = one_def(
            "def s (A : U0) (x : A) (p : Path A x x)"
            " : Path A x x := <i> p @ (i /\\ ~i)"
        )
        papp = d.body.body.body.body.body
        assert isinstance(papp, PApp)

    def test_clock_forms(self):
        d = one_def(
            "def f (A : U0) (x : forall k. A) : A := x {k0}"
        )
        assert d.body.body.body == CApp(Var(0), K0)

    def test_later_and_tick(self):
        d = one_def(
            "def u (A : U0) (x : A) : forall k. |> (a : k) A"
            " := /\\k. tick a : k. x"
        )
        assert d.ty.cod.cod == Forall(Later(0, Var(1)))
        assert d.body.body.body == CLam(TickLam(0, Var(0)))

    def test_tick_application(self):
        d = one_def(
            "def g (A : U0) (y : |> (a : k0) A) (f : |> (a : k0) A -> A)"
            " : U0 := A"
        )
        assert d.ty.cod.dom == Later(K0, Var(0))

    def test_forcing(self):
        d = one_def(
            "def force (A : U0) (x : forall k. |> (a : k) A)"
            " : forall k. A := /\\k'. (k. x {k}) [k', <>]"
        )
        assert d.body.body.body == CLam(
            ForceApp(CApp(Var(0), 0), 0, Diamond())
        )

    def test_forcing_tirr(self):
        d = one_def(
            "def w (A : U0) (x : forall k. |> (a : k) A) : U0 :="
            " /\\k'. tick b : k'. (k. x {k}) [k', tirr(<>, b, 0)]"
        )
        inner = d.body.body.body.body.body
        assert inner.tick == Tirr(Diamond(), TickVar(0), IZERO)

    def test_dfix(self):
        d = one_def(
            "def l (A : U0) (f : |> (a : k0) A -> A)"
            " : |> (a : k0) A := dfix k0 f"
        )
        assert d.body.body.body == DFix(K0, Var(0))

    def test_comp_face_out_of_scope(self):
        with pytest.raises(ParseError):
            parse_module(
                "def c (A : U0) (x : A) : A :="
                " comp^i A [(j = 0) -> x] x"
            )


class TestCompSyntax:
    def test_comp_faces_scope(self):
        src = ("def c (A : U0) (x : A) (p : Path A x x) : A :="
               " <i> comp^j A [(i = 0) -> x, (i = 1) -> p @ j] (p @ i)")
        with pytest.raises(ParseError):
            # <i> ... produces a path lambda, not an A; but parsing is fine,
            # so force a genuine parse error instead: missing bracket.
            parse_module("def c : U0 := comp^i U0 [ x")
        mod = parse_module(src)
        body = mod.decls[0].body.body.body.body
        comp = body.body
        assert isinstance(comp, Comp)
        assert comp.face == FOr(FEq(0, 0), FEq(0, 1))
        # Tube faces are weakened under the bound direction.
        assert comp.tube.parts[0][0] == FEq(1, 0)

    def test_system_atom(self):
        src = ("def s (A : U0) (x : A) (p : Path A x x) : U0 :="
               " <i> [(i = 0) -> x, (i = 1) -> x]")
        mod = parse_module(src)
        sys_t = mod.decls[0].body.body.body.body.body
        assert isinstance(sys_t, System)
        assert sys_t.parts[0][0] == FEq(0, 0)


class TestData:
    NAT = "data nat : U0 where | zero | succ (m : nat)"

    def test_nat_signature(self):
        mod = parse_module(self.NAT)
        sig = mod.decls[0].sig
        assert sig.name == "nat"
        assert [c.label for c in sig.constructors] == ["zero", "succ"]
        assert sig.constructors[1].rec_arities == (
            __import__("cctt.syntax", fromlist=["Telescope"]).Telescope(()),
        )

    def test_circle(self):
        src = ("data s1 : U0 where | base"
               " | loop (i : I) [(i = 0) -> base, (i = 1) -> base]")
        sig = parse_module(src).decls[0].sig
        loop = sig.constructors[1]
        assert loop.ivar_count == 1
        assert loop.face == FOr(FEq(0, 0), FEq(0, 1))
        assert loop.boundary[0][1] == Con("s1", "base", (), (), (), ())

    def test_bare_face_entry(self):
        src = ("data bad : U0 where | pt"
               " | half (i : I) [(i = 0) -> pt, (i = 1)]")
        sig = parse_module(src).decls[0].sig
        half = sig.constructors[1]
        assert len(half.boundary) == 1
        assert half.face == FOr(FEq(0, 0), FEq(0, 1))

    def test_powerset_idem(self):
        src = (
            "data pf (A : U0) : U0 where\n"
            "  | empty\n"
            "  | sing (a : A)\n"
            "  | union (x : pf) (y : pf)\n"
            "  | idem (x : pf) (i : I)"
            " [(i = 0) -> union x x, (i = 1) -> x]"
        )
        sig = parse_module(src).decls[0].sig
        idem = sig.constructors[3]
        # The recursive argument x is the innermost term variable; A is
        # past it.
        assert idem.boundary[0][1] == Con(
            "pf", "union", (Var(1),), (), (Var(0), Var(0)), ()
        )
        assert idem.boundary[1][1] == Var(0)

    def test_constructor_spine(self):
        src = self.NAT + "\ndef two : nat := succ (succ zero)"
        two = parse_module(src).decls[1].body
        zero = Con("nat", "zero", (), (), (), ())
        assert two == Con("nat", "succ", (), (),
                          (Con("nat", "succ", (), (), (zero,), ()),), ())

    def test_clockelim(self):
        src = (self.NAT + "\n"
               "def plus2 (m : nat) : nat :=\n"
               "  clockelim^0 nat m into (h. nat) with\n"
               "  | zero => succ (succ zero)\n"
               "  | succ x y => succ y")
        elim = parse_module(src).decls[1].body.body
        assert elim.n == 0
        assert elim.motive == Hit("nat", ())
        assert elim.cases[1] == ElimCase(
            "succ", 0, 1, 0, Con("nat", "succ", (), (), (Var(0),), ())
        )

    # Parentheses around a spine's head, or around a forced clock binder,
    # do not change how the spine is read.
    @pytest.mark.parametrize("plain, wrapped", [
        ("succ zero", "(succ) zero"),
        ("succ (succ zero)", "(succ) ((succ) zero)"),
        ("\\n. succ n", "\\n. ((succ) n)"),
    ])
    def test_parenthesised_spine_head(self, plain, wrapped):
        def body(term):
            src = self.NAT + f"\ndef t : nat -> nat := \\m. {term}"
            return parse_module(src).decls[1].body
        assert body(wrapped) == body(plain)

    def test_parenthesised_constructor_with_parameters(self):
        src = ("data list (A : U0) : U0 where | nil | cons (x : A) (xs : list)"
               "\ndef one (A : U0) (a : A) : list A := {}")
        plain = parse_module(src.format("cons A a (nil A)")).decls[1]
        wrapped = parse_module(src.format("(cons A a) ((nil) A)")).decls[1]
        assert wrapped == plain
        assert plain.body.body.body.args == (Var(0),)

    def test_parenthesised_forced_binder(self):
        src = ("def f (A : U0) (x : forall k. A) : A := {} [k0, <>]")
        plain = parse_module(src.format("(k. x {k})")).decls[0]
        wrapped = parse_module(src.format("((k. x {k}))")).decls[0]
        assert wrapped == plain
        assert isinstance(plain.body.body.body, ForceApp)

    def test_boundary_naming_a_later_constructor(self):
        src = ("data d : U0 where | a"
               " | b (i : I) [(i = 0) -> a, (i = 1) -> c] | c")
        b = parse_module(src).decls[0].sig.constructors[1]
        assert b.boundary[1][1] == Con("d", "c", (), (), (), ())

    def test_boundary_hides_recursive_arguments_from_ordinary_arguments(
            self):
        # An ordinary argument of a constructor in a boundary is read where
        # the recursive arguments are not in scope.
        src = ("data d (A : U0) : U0 where | pt"
               " | p (a : A) (i : I) [(i = 0) -> pt, (i = 1) -> pt]"
               " | q (r : d) (i : I) [(i = 0) -> r, (i = 1) -> p r i]")
        with pytest.raises(UnboundVariable, match="unbound name 'r'"):
            parse_module(src)

    def test_group_binder_types_are_read_per_name(self):
        # The type of `y` is read with `x` in scope: P is one further out.
        src = ("data d (P : U0) : U0 where | two (x y : P)\n"
               "def f (P : U0) (x y : P) : P := y")
        sig, f = parse_module(src).decls
        assert sig.sig.constructors[0].args.types == (Var(0), Var(1))
        assert f.ty == Pi(U(0), Pi(Var(0), Pi(Var(1), Var(2))))

    def test_unknown_name(self):
        with pytest.raises(UnboundVariable):
            parse_module("def t : U0 := mystery")

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError):
            parse_module("def a : U1 := U0\ndef a : U1 := U0")


class TestPragmas:
    def test_expect_fail(self):
        mod = parse_module(
            "--expect-fail(TypeMismatch)\ndef t : U0 := U0"
        )
        assert mod.decls[0].expect == ("fail", "TypeMismatch")

    def test_unknown_error_class(self):
        with pytest.raises(ParseError):
            parse_module("--expect-fail(NoSuchError)\ndef t : U0 := U0")

    def test_conv_pragma(self):
        mod = parse_module(
            "def a : U1 := U0\n--expect-conv a = U0 : U1"
        )
        cc = mod.decls[1]
        assert isinstance(cc, ConvCheck)
        assert cc.lhs == TopRef("a")
        assert cc.rhs == U(0)
        assert cc.want_equal

    def test_dangling_pragma(self):
        with pytest.raises(ParseError):
            parse_module("--expect-pass")


# Malformed inputs and the exact messages they are reported with.
PARSE_ERRORS = [
    ("def f : U0 :=\t?", "1:15: unexpected character '?'"),
    ("def f : U0 :=\r\n\t x ?", "2:5: unexpected character '?'"),
    ("-- a comment\n  def ? f", "2:7: unexpected character '?'"),
    ("def f : U0 := (x y", "1:19: expected ')', found 'end of input'"),
    ("def f : U0 := succ (succ (zero)",
     "1:32: expected ')', found 'end of input'"),
    ("--expect-pass", "expectation pragma not attached to a declaration"),
    ("def f : U0 := x\n--expect-fail(TypeMismatch)",
     "expectation pragma not attached to a declaration"),
    ("--expect-pass\n--expect-pass\ndef f : U0 := x",
     "3:1: duplicate expectation pragma, found 'def'"),
    ("def f : U0 := [(x = 2) -> y]",
     "1:22: a face equation ends in 0 or 1, found ')'"),
    ("def f : U0 := (x = 2)",
     "1:21: a face equation ends in 0 or 1, found ')'"),
    ("def f : U0 := where",
     "1:15: keyword 'where' cannot start a term here, found 'where'"),
    ("def f : U0 := x\ndata", "2:5: expected a name, found 'end of input'"),
    ("def f (x : A) := x", "1:15: expected ':', found ':='"),
    ("def f : U0 := p @ i x", "1:21: expected a declaration, found 'x'"),
    ("def f : U0 := tirr(a, b, i @ j)", "1:28: expected ')', found '@'"),
    ("def a : U1 := U0\r\n-- a comment\n  --expect-fail(Foo)\ndef b : U1 := U0",
     "3:3: unknown error class 'Foo'"),
]


@pytest.mark.parametrize("src, message", PARSE_ERRORS)
def test_parse_error_message(src, message):
    with pytest.raises(ParseError) as err:
        surface_module(src)
    assert str(err.value) == message


# A declaration whose name is taken stands for an error naming its line.
DUPLICATE_ERRORS = [
    ("def a : U1 := U0\r\n-- a comment\r\ndef b : U1 := U0\n  def a : U1 := U0",
     "line 4: 'a' is already declared"),
    ("def a : U1 := U0\r\n-- a comment\r\n\n  data d : U0 where\n | c\n | c",
     "line 4: 'c' is already declared"),
]


@pytest.mark.parametrize("src, message", DUPLICATE_ERRORS)
def test_duplicate_declaration_message(src, message):
    *_, (_, _, err) = surface_module(src)
    assert isinstance(err, ParseError)
    assert str(err) == message


def test_deep_nat_literal_parses():
    # At the default recursion limit: nesting costs the parser no Python
    # frame.
    depth = 100000
    src = ("data nat : U0 where | zero | succ (m : nat)\n"
           "def big : nat := " + "succ (" * depth + "zero" + ")" * depth)
    t = parse_module(src).decls[1].body
    for _ in range(depth):
        assert isinstance(t, Con) and len(t.recs) == 1
        assert t == Con("nat", "succ", (), (), t.recs, ())
        t = t.recs[0]
    assert t == Con("nat", "zero", (), (), (), ())


# Each term former nested 5000 deep, read at the default recursion limit:
# the source's body, and the steps that take the kernel term one level
# down, checking the level.
DEEP = 5000
DEEP_PRELUDE = ("data nat : U0 where | zero | succ (m : nat)\n"
                "data s1 : U0 where | base | loop (i : I)\n"
                "data list (A : U0) : U0 where\n"
                "  | nil | cons (x : A) (xs : list)\n"
                "def p : U0 := U0\n")


def _unwrap(cls, field):
    def step(t):
        assert type(t) is cls, t
        return getattr(t, field)
    return step


DEEP_FORMERS = [
    ("parentheses", "(" * DEEP + "p" + ")" * DEEP, lambda t: t, TopRef("p")),
    ("lambda", "\\x. " * DEEP + "x", _unwrap(Lam, "body"), Var(0)),
    ("dependent function", "(x : U0) -> " * DEEP + "U0", _unwrap(Pi, "cod"),
     U(0)),
    ("function", "U0 -> " * DEEP + "U0", _unwrap(Pi, "cod"), U(0)),
    ("path lambda", "<i> " * DEEP + "p", _unwrap(PLam, "body"), TopRef("p")),
    ("clock lambda", "/\\k. " * DEEP + "p", _unwrap(CLam, "body"),
     TopRef("p")),
    ("forall", "forall k. " * DEEP + "p", _unwrap(Forall, "body"),
     TopRef("p")),
    ("tick lambda", "tick a : k0. " * DEEP + "p", _unwrap(TickLam, "body"),
     TopRef("p")),
    ("later", "|> (a : k0) " * DEEP + "p", _unwrap(Later, "ty"), TopRef("p")),
    ("path application", "p" + " @ 0" * DEEP, _unwrap(PApp, "fn"),
     TopRef("p")),
    ("interval argument", "loop " + "(0 /\\ " * DEEP + "1" + ")" * DEEP,
     lambda t: t, Con("s1", "loop", (), (), (), (IZERO,))),
    ("constructor arguments", "cons nat zero (" * DEEP + "nil nat"
     + ")" * DEEP, lambda t: t.recs[0] if t.label == "cons" else t,
     Con("list", "nil", (Hit("nat", ()),), (), (), ())),
]


@pytest.mark.parametrize("body, down, end",
                         [former[1:] for former in DEEP_FORMERS],
                         ids=[former[0] for former in DEEP_FORMERS])
def test_deeply_nested_term_formers_parse(body, down, end):
    t = parse_module(DEEP_PRELUDE + f"def d : U0 := {body}\n").decls[-1].body
    for _ in range(DEEP):
        if t == end:
            break
        t = down(t)
    assert t == end


def test_parser_calls_per_token():
    # Python calls made while the front end reads the corpus, per token:
    # 4.49 when it was recursive descent, 1.54 when this test was written.
    calls = tokens = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    for path in sorted(CORPUS.rglob("*.cctt")):
        text = path.read_text(encoding="utf-8")
        try:
            surface_module(text)
        except ParseError:
            continue
        tokens += len(tokenize(text))
        sys.setprofile(count)
        try:
            surface_module(text)
        finally:
            sys.setprofile(None)
    assert tokens > 4000
    assert calls / tokens <= 1.6


# Token values the tokenizer can produce, and starts that put a stream in
# term, face and declaration positions.
TOKEN_VOCABULARY = sorted(RESERVED) + [
    "x", "y", "k0", "U0", "succ", "TypeMismatch", "0", "1", "2",
    "->", ":=", "=>", "/\\", "\\/", "|>", "<>", "(", ")", "[", "]", "{", "}",
    "<", ">", ",", ".", ":", "=", "|", "^", "@", "~", "\\",
    "--expect-pass", "--expect-fail", "--expect-conv", "--expect-not-conv",
]
STREAM_STARTS = ["", "def f : U0 := ", "def f (x : U0) : ",
                 "data d : U0 where | c ", "--expect-conv ",
                 "def f : U0 := [", "def f : U0 := comp^i A ["]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(STREAM_STARTS),
       st.lists(st.sampled_from(TOKEN_VOCABULARY), max_size=40),
       st.sampled_from([" ", "\n"]))
def test_random_token_streams_never_crash(start, words, sep):
    # A stream that parses is checked too: every declaration gets its
    # verdict line, and no exception escapes.
    text = start + sep.join(words)
    try:
        decls = surface_module(text)
    except ParseError:
        return
    report = Report()
    with contextlib.redirect_stdout(io.StringIO()):
        check_file("stream.cctt", text, 1000, report)
    assert [decl for _, _, decl in report.lines] \
        == [name for name, _, _ in decls]


ROUND_TRIP_SOURCES = [
    "def id (A : U0) (x : A) : A := x",
    "def t : U1 := (A : U0) -> A -> A",
    ("def r (A : U0) (x : A) : Path A x x := <i> x\n"
     "--expect-conv r = \\A. \\x. <i> x"
     " : (A : U0) -> (x : A) -> Path A x x"),
    ("def u (A : U0) (x : A) : forall k. |> (a : k) A"
     " := /\\k. tick a : k. x"),
    ("def force (A : U0) (x : forall k. |> (a : k) A)"
     " : forall k. A := /\\k'. (k. x {k}) [k', <>]"),
    ("def fx (A : U0) (f : |> (a : k0) A -> A) : |> (a : k0) A"
     " := dfix k0 f"),
    ("def c (A : U0) (x : A) (p : Path A x x) : A :="
     " comp^j A [] (p @ 1)"),
    ("def tr (A : U0) (x : A) : A := trans^i A [1] x"),
    ("data s1 : U0 where | base"
     " | loop (i : I) [(i = 0) -> base, (i = 1) -> base]\n"
     "def l : Path s1 base base := <i> loop i"),
    ("data pf (A : U0) : U0 where\n"
     " | empty | sing (a : A) | union (x : pf) (y : pf)\n"
     " | idem (x : pf) (i : I) [(i = 0) -> union x x, (i = 1) -> x]"),
    ("data nat : U0 where | zero | succ (m : nat)\n"
     "--expect-pass\n"
     "def plus2 (m : nat) : nat := clockelim^0 nat m into (h. nat) with"
     " | zero => succ (succ zero) | succ x y => succ y"),
    ("data bad : U0 where | pt | half (i : I) [(i = 0) -> pt, (i = 1)]"),
    ("def s (A : U0) (x : forall k. |> (a : k0) A)"
     " : forall k. |> (a : k0) A := /\\k0. tick b : k0. x {k0}"),
]


# Eleven meets joined and eleven joins met, over 22 interval variables:
# the normal form of either, or of the reversal of the first, has 2048
# clauses.
_IVS = " ".join(f"i{j}" for j in range(22))
_JOINED = " \\/ ".join(f"(i{2 * j} /\\ i{2 * j + 1})" for j in range(11))
_MET = " /\\ ".join(f"(i{2 * j} \\/ i{2 * j + 1})" for j in range(11))


@pytest.mark.parametrize("body", [
    f"seg ({_MET})", f"seg (~({_JOINED}))",
    f"(\\x. x) @ ({_MET})", f"(\\x. x) @ ~({_JOINED})",
], ids=["operator", "reversal", "path-operator", "path-reversal"])
def test_a_normal_form_too_large_fails_its_declaration_only(body):
    decls = surface_module("data line : U0 where | pt | seg (i : I)\n"
                           f"def t : U0 := <{_IVS}> {body}\n"
                           "def g : U1 := U0\n")
    assert [type(d) for _, _, d in decls] == [
        DataDefinition, FaceTooLarge, Definition]


def test_a_boundary_join_too_large_fails_its_declaration_only():
    # Two pieces on faces of ten conjuncts, one at each endpoint: their
    # join, the constructor's face, has 2048 clauses.
    faces = [" /\\ ".join(f"((i{2 * j} = {end}) \\/ (i{2 * j + 1} = {end}))"
                          for j in range(10)) for end in (0, 1)]
    ivs = " ".join(f"(i{j} : I)" for j in range(20))
    decls = surface_module(
        f"data d : U0 where | pt | c {ivs} [{faces[0]} -> pt,"
        f" {faces[1]} -> pt]\ndef g : U1 := U0\n")
    assert [type(d) for _, _, d in decls] == [FaceTooLarge, Definition]
    assert str(decls[0][2]) == "a join of 2048 clauses"


class TestRoundTrip:
    @pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
    def test_parse_print_parse(self, src):
        mod = parse_module(src)
        printed = print_module(mod)
        assert parse_module(printed) == mod


def test_printer_names_the_clock_constant_k0_and_no_binder():
    # A user's binder named k0 shadows the constant; printed, it gets a
    # fresh name, so the constant's name is not captured.
    d = one_def("def s (x : forall k. |> (a : k0) U0) : forall k. U0"
                " := /\\k0. (k. x {k}) [k0, <>]")
    assert d.ty.dom == Forall(Later(K0, U(0)))
    assert d.body.body == CLam(ForceApp(CApp(Var(0), 0), 0, Diamond()))
    assert print_module(Module((d,))) == (
        "def s : (x0 : forall k1. |> (a0 : k0) U0) -> forall k2. U0"
        " := \\x1. /\\k3. (k4. x1 {k4}) [k3, <>]\n")


def test_k0_is_read_as_the_clock_constant_only_where_a_clock_is():
    # In term position k0 is an ordinary name, unbound until declared.
    (_, _, f), _, (_, _, g) = surface_module(
        "def f : U1 := k0\ndef k0 : U1 := U0\ndef g : U1 := k0\n")
    assert isinstance(f, UnboundVariable)
    assert g.body == TopRef("k0")


def test_generated_interval_expressions_round_trip():
    # Normal forms of random oracle trees over three variables, each placed
    # as p @ r under three path binders and as a constructor's interval
    # argument under them.
    rng = random.Random(17)
    decls = list(parse_module(
        "data line : U0 where | pt | seg (i : I)"
    ).decls)
    for n in range(300):
        r = kernel_iv(_iv_random(rng, 4, 3))
        at = Lam(PLam(PLam(PLam(PApp(Var(0), r)))))
        seg = PLam(PLam(PLam(Con("line", "seg", (), (), (), (r,)))))
        decls.append(Definition(f"at{n}", U(0), at, None))
        decls.append(Definition(f"seg{n}", U(0), seg, None))
    module = Module(tuple(decls))
    assert parse_module(print_module(module)) == module
