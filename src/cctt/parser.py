"""Surface syntax: tokenizer, parser, elaborator, and printer.

`tokenize` is one pass of one regular expression whose every match is a
token followed by the whitespace and comments after it, or a newline, so
lines and columns are counted as it goes and nothing is built for the text
it skips.  The parser is recursive descent over the token list with an
index cursor.  Binary operators are parsed by precedence climbing, all left
associative, from the loosest: `\\/` < `/\\` < `@` < application; interval
expressions and faces have the two lattice operators only.

The surface language uses named variables.  Elaboration resolves names to
the sort-indexed de Bruijn representation of `syntax`, splitting
constructor and eliminator spines using the data signatures declared
earlier in the module.  The printer emits surface text that reparses to
the same kernel declarations.  Interval expressions and faces elaborate
to their normal forms (`interval`) and print as them, so `~~i` prints as
`i`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ERROR_CLASSES, ParseError, UnboundVariable
from .interval import (
    FAnd, FBOT, FEq, FOr, FTOP, Face, IJoin, IMeet, INeg, IONE, IVar, IZERO,
    face_join, iv_rename, iv_show,
)
from .syntax import (
    App, BCon, BHComp, BRec, CApp, CLam, ClockElim, Comp, Con, Constructor,
    DFix, Diamond, ElimCase, ForceApp, Forall, HComp, Hit, HitSignature,
    Lam, Later, PApp, PFix, PLam, PathT, Pi, System, Telescope, TickApp,
    TickLam, TickVar, Tirr, TopRef, Trans, U, Var,
    CLOCK, IVAL, TERM, TICK, weaken_iv,
)

RESERVED = {
    "Path", "forall", "tick", "tirr", "dfix", "pfix", "comp", "hcomp",
    "trans", "data", "where", "def", "clockelim", "into", "with", "I",
}

_UNIVERSE = re.compile(r"U([0-9]+)$")

# Whitespace other than a newline, and comments: `--` not starting a pragma.
_SKIP = r"(?:[^\S\n]+|--(?!expect-(?:not-conv|pass|fail|conv))[^\n]*)*"
_SKIP_RE = re.compile(_SKIP)
# One token and the skippable text after it.  A newline is a match of its
# own so that lines are counted as they go by; any other character that
# starts no token is `bad`.
_TOKEN_RE = re.compile(
    r"""(?:
      (?P<pragma>--expect-(?:not-conv|pass|fail|conv))
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<num>[0-9]+)
    | (?P<sym>->|:=|=>|/\\|\\/|\|>|<>|[()\[\]{}<>,.:=|^@~\\])
    | (?P<nl>\n)
    | (?P<bad>\S)
    )""" + _SKIP,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "pragma" | "ident" | "num" | "sym" | "eof"
    value: str
    line: int
    col: int


# Builds a Token without the Python-level `__new__` of a NamedTuple.
_token = tuple.__new__


def tokenize(text):
    toks = []
    append = toks.append
    line, bol = 1, 0
    for m in _TOKEN_RE.finditer(text, _SKIP_RE.match(text).end()):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            bol = m.start() + 1
        elif kind == "bad":
            pos = m.start()
            raise ParseError(
                f"{line}:{pos - bol + 1}: unexpected character {text[pos]!r}"
            )
        else:
            append(_token(Token, (kind, m[kind], line, m.start() - bol + 1)))
    append(_token(Token, ("eof", "", line, len(text) - bol + 1)))
    return toks


# --------------------------------------------------------------------------
# Surface terms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SVar:
    name: str


@dataclass(frozen=True)
class SU:
    level: int


@dataclass(frozen=True)
class SNum:
    value: int


@dataclass(frozen=True)
class SPi:
    name: str | None
    dom: object
    cod: object


@dataclass(frozen=True)
class SLam:
    name: str
    body: object


@dataclass(frozen=True)
class SPLam:
    name: str
    body: object


@dataclass(frozen=True)
class SCLam:
    name: str
    body: object


@dataclass(frozen=True)
class SForall:
    name: str
    body: object


@dataclass(frozen=True)
class SLater:
    tick: str
    clock: str
    body: object


@dataclass(frozen=True)
class STickLam:
    tick: str
    clock: str
    body: object


@dataclass(frozen=True)
class SApp:
    fn: object
    arg: object


@dataclass(frozen=True)
class SAt:
    fn: object
    arg: object


@dataclass(frozen=True)
class SCApp:
    fn: object
    clock: str


@dataclass(frozen=True)
class STickApp:
    fn: object
    tick: object


@dataclass(frozen=True)
class SForce:
    bind: str | None
    fn: object
    clock: str
    tick: object


@dataclass(frozen=True)
class SPath:
    ty: object
    left: object
    right: object


@dataclass(frozen=True)
class SDFix:
    clock: str
    fn: object


@dataclass(frozen=True)
class SPFix:
    clock: str
    fn: object


@dataclass(frozen=True)
class SComp:
    ivar: str
    ty: object | None
    parts: tuple
    base: object


@dataclass(frozen=True)
class SHComp:
    ivar: str
    ty: object | None
    parts: tuple
    base: object


@dataclass(frozen=True)
class STrans:
    ivar: str
    ty: object
    face: object | None
    base: object


@dataclass(frozen=True)
class SSystem:
    parts: tuple


@dataclass(frozen=True)
class SMeet:
    left: object
    right: object


@dataclass(frozen=True)
class SJoin:
    left: object
    right: object


@dataclass(frozen=True)
class SNeg:
    arg: object


@dataclass(frozen=True)
class SFEq:
    name: str
    end: int


@dataclass(frozen=True)
class SDiamond:
    pass


@dataclass(frozen=True)
class STirr:
    left: object
    right: object
    at: object


@dataclass(frozen=True)
class SClockBind:
    name: str
    body: object


@dataclass(frozen=True)
class SCase:
    label: str
    names: tuple
    body: object


@dataclass(frozen=True)
class SClockElim:
    hit: str
    n: int
    params: tuple
    scrut: object
    hvar: str
    motive: object
    cases: tuple


# --------------------------------------------------------------------------
# Surface declarations
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SDefD:
    name: str
    binders: tuple  # ((name, surface type), ...)
    ty: object
    body: object
    expect: tuple | None
    line: int


@dataclass(frozen=True)
class SCtorD:
    label: str
    binders: tuple
    boundary: tuple  # ((surface face, surface term | None), ...)


@dataclass(frozen=True)
class SDataD:
    name: str
    params: tuple
    level: int
    ctors: tuple
    expect: tuple | None
    line: int


@dataclass(frozen=True)
class SConvD:
    lhs: object
    rhs: object
    ty: object
    want_equal: bool
    line: int


# Binary operators by token value: precedence and the node built.
_LATTICE_OPS = {"\\/": (1, SJoin), "/\\": (2, SMeet)}
_TERM_OPS = {**_LATTICE_OPS, "@": (3, SAt)}

# Binder forms `\x y. t`, `/\k. t`, `<i j> t` and `forall k. A`, by their
# first token: the node built for each name, and the token after the names.
_BINDERS = {"\\": (SLam, "."), "/\\": (SCLam, "."), "<": (SPLam, ">"),
            "forall": (SForall, ".")}


class _Parser:
    """Recursive descent over the tokens of `tokenize`.

    The token list ends in `eof` and every lookahead stops there (it looks
    past a token only when that is an identifier or `(`), so the cursor
    reads the list by index.  A token's value tells its kind apart (an
    identifier, a number, a symbol and a pragma never share one), so a
    keyword or symbol is tested by its value alone.
    """

    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self, k=0):
        return self.toks[self.pos + k]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at(self, value):
        return self.toks[self.pos].value == value

    def expect(self, value):
        tok = self.toks[self.pos]
        if tok.value != value:
            self.fail(f"expected {value!r}")
        self.pos += 1
        return tok

    def expect_kind(self, kind):
        tok = self.toks[self.pos]
        if tok.kind != kind:
            self.fail(f"expected {kind!r}")
        self.pos += 1
        return tok

    def fail(self, msg):
        tok = self.toks[self.pos]
        got = tok.value or "end of input"
        raise ParseError(f"{tok.line}:{tok.col}: {msg}, found {got!r}")

    # -- names -------------------------------------------------------------

    def at_name(self, k=0):
        tok = self.toks[self.pos + k]
        return tok.kind == "ident" and tok.value not in RESERVED

    def name(self):
        if not self.at_name():
            self.fail("expected a name")
        return self.advance().value

    def names1(self):
        out = [self.name()]
        while self.at_name():
            out.append(self.advance().value)
        return out

    # -- terms -------------------------------------------------------------

    def term(self):
        value = self.toks[self.pos].value
        binder = _BINDERS.get(value)
        if binder is not None:
            node, close = binder
            self.pos += 1
            names = self.names1()
            self.expect(close)
            body = self.term()
            for nm in reversed(names):
                body = node(nm, body)
            return body
        if value == "tick":
            self.pos += 1
            nm = self.name()
            self.expect(":")
            clock = self.name()
            self.expect(".")
            return STickLam(nm, clock, self.term())
        if self._at_binder_group():
            groups = self.binder_groups()
            self.expect("->")
            cod = self.term()
            for nm, ty in reversed(groups):
                cod = SPi(nm, ty, cod)
            return cod
        left = self.binary(self.app, _TERM_OPS)
        if self.at("->"):
            self.pos += 1
            return SPi(None, left, self.term())
        return left

    def _at_binder_group(self):
        if not self.at("("):
            return False
        k = 1
        while self.at_name(k):
            k += 1
        return k > 1 and self.peek(k).value == ":"

    def binder_groups(self):
        groups = []
        while self._at_binder_group():
            self.pos += 1
            names = self.names1()
            self.expect(":")
            ty = self.term()
            self.expect(")")
            groups += [(nm, ty) for nm in names]
        return groups

    def binary(self, operand, ops, min_prec=1):
        """Operands joined by the operators of `ops` that bind at least as
        tightly as `min_prec`, by precedence climbing.  The right operand of
        `@` is an interval atom."""
        left = operand()
        while True:
            op = ops.get(self.toks[self.pos].value)
            if op is None or op[0] < min_prec:
                return left
            self.pos += 1
            prec, node = op
            if node is SAt:
                left = SAt(left, self.iatom())
            else:
                left = node(left, self.binary(operand, ops, prec + 1))

    def _at_arg_atom(self):
        tok = self.toks[self.pos]
        if tok.kind == "ident":
            return tok.value not in RESERVED
        return tok.kind == "num" or tok.value == "(" or tok.value == "~"

    def app(self):
        t = self.atom()
        while True:
            if self._at_arg_atom():
                t = SApp(t, self.atom())
                continue
            value = self.toks[self.pos].value
            if value == "{":
                self.pos += 1
                clock = self.name()
                self.expect("}")
                t = SCApp(t, clock)
            elif value == "[":
                t = self.tick_suffix(t)
            else:
                return t

    def tick_suffix(self, t):
        self.expect("[")
        first = self.tick_expr()
        if self.at(","):
            self.pos += 1
            if not isinstance(first, SVar):
                self.fail("expected a clock name before ','")
            u = self.tick_expr()
            self.expect("]")
            if isinstance(t, SClockBind):
                return SForce(t.name, t.body, first.name, u)
            return SForce(None, t, first.name, u)
        self.expect("]")
        if isinstance(t, SClockBind):
            self.fail("a clock binder must be applied to '[clock, tick]'")
        return STickApp(t, first)

    def tick_expr(self):
        if self.at("<>"):
            self.pos += 1
            return SDiamond()
        if self.at("tirr"):
            self.pos += 1
            self.expect("(")
            u = self.tick_expr()
            self.expect(",")
            v = self.tick_expr()
            self.expect(",")
            r = self.iexpr()
            self.expect(")")
            return STirr(u, v, r)
        return SVar(self.name())

    # -- interval expressions and faces ------------------------------------

    def iexpr(self):
        return self.binary(self.iatom, _LATTICE_OPS)

    def iatom(self):
        tok = self.peek()
        if tok.value == "~":
            self.pos += 1
            return SNeg(self.iatom())
        if tok.kind == "num":
            self.pos += 1
            return SNum(int(tok.value))
        if tok.value == "(":
            self.pos += 1
            t = self.iexpr()
            self.expect(")")
            return t
        return SVar(self.name())

    def face(self):
        return self.binary(self.face_atom, _LATTICE_OPS)

    def face_atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.pos += 1
            return SNum(int(tok.value))
        self.expect("(")
        if self.peek().kind == "ident" and self.peek(1).value == "=":
            return self.face_eq(self.name())
        t = self.face()
        self.expect(")")
        return t

    def face_eq(self, name):
        """The rest of `(name = 0)` or `(name = 1)`, after the name."""
        self.expect("=")
        end = int(self.expect_kind("num").value)
        if end not in (0, 1):
            self.fail("a face equation ends in 0 or 1")
        self.expect(")")
        return SFEq(name, end)

    def bracket_parts(self):
        """[phi -> t, ...]; entries without '->' carry face only."""
        self.expect("[")
        parts = []
        if self.at("]"):
            self.pos += 1
            return tuple(parts)
        while True:
            phi = self.face()
            if self.at("->"):
                self.pos += 1
                parts.append((phi, self.term()))
            else:
                parts.append((phi, None))
            if self.at(","):
                self.pos += 1
                continue
            self.expect("]")
            return tuple(parts)

    # -- atoms -------------------------------------------------------------

    def atom(self):
        tok = self.peek()
        kind, value = tok.kind, tok.value
        if kind == "ident":
            if value not in RESERVED:
                self.pos += 1
                m = _UNIVERSE.match(value)
                return SU(int(m[1])) if m else SVar(value)
            if value == "Path":
                self.pos += 1
                return SPath(self.atom(), self.atom(), self.atom())
            if value == "tirr":
                return self.tick_expr()
            if value in ("dfix", "pfix"):
                self.pos += 1
                clock = self.name()
                fn = self.atom()
                return (SDFix if value == "dfix" else SPFix)(clock, fn)
            if value in ("comp", "hcomp"):
                self.pos += 1
                self.expect("^")
                iv = self.name()
                ty = None if self.at("[") else self.atom()
                parts = self.bracket_parts()
                base = self.atom()
                cls = SComp if value == "comp" else SHComp
                return cls(iv, ty, parts, base)
            if value == "trans":
                self.pos += 1
                self.expect("^")
                iv = self.name()
                ty = self.atom()
                face = None
                if self.at("["):
                    self.pos += 1
                    face = self.face()
                    self.expect("]")
                return STrans(iv, ty, face, self.atom())
            if value == "clockelim":
                return self.clockelim()
            if value == "I":
                self.pos += 1
                return SVar("I")
            self.fail(f"keyword {value!r} cannot start a term here")
        if kind == "num":
            self.pos += 1
            return SNum(int(value))
        if value == "~":
            self.pos += 1
            return SNeg(self.atom())
        if value == "(":
            return self.paren()
        if value == "[":
            parts = self.bracket_parts()
            for phi, t in parts:
                if t is None:
                    self.fail("a system component needs '-> term'")
            return SSystem(parts)
        if value == "|>":
            self.pos += 1
            self.expect("(")
            nm = self.name()
            self.expect(":")
            clock = self.name()
            self.expect(")")
            return SLater(nm, clock, self.atom())
        self.fail("expected a term")

    def paren(self):
        self.expect("(")
        if self.at_name() and self.peek(1).value == ".":
            nm = self.name()
            self.expect(".")
            body = self.term()
            self.expect(")")
            return SClockBind(nm, body)
        t = self.term()
        if self.at("="):
            if not isinstance(t, SVar):
                self.fail("a face equation applies to a variable")
            return self.face_eq(t.name)
        self.expect(")")
        return t

    def clockelim(self):
        self.expect("clockelim")
        self.expect("^")
        n = int(self.expect_kind("num").value)
        hit = self.name()
        spine = []
        while not self.at("into"):
            if not self._at_arg_atom():
                self.fail("expected an argument or 'into'")
            spine.append(self.atom())
        if not spine:
            self.fail("clockelim needs a scrutinee")
        self.expect("into")
        self.expect("(")
        hvar = self.name()
        self.expect(".")
        motive = self.term()
        self.expect(")")
        self.expect("with")
        cases = []
        while self.at("|"):
            self.pos += 1
            label = self.name()
            names = []
            while not self.at("=>"):
                names.append(self.name())
            self.expect("=>")
            cases.append(SCase(label, tuple(names), self.term()))
        return SClockElim(hit, n, tuple(spine[:-1]), spine[-1],
                          hvar, motive, tuple(cases))

    # -- declarations ------------------------------------------------------

    def module(self):
        decls = []
        pending = None
        while True:
            tok = self.peek()
            if tok.kind == "pragma":
                pending = self.pragma(decls, pending)
            elif tok.value == "def":
                decls.append(self.def_decl(pending))
                pending = None
            elif tok.value == "data":
                decls.append(self.data_decl(pending))
                pending = None
            elif tok.kind == "eof":
                break
            else:
                self.fail("expected a declaration")
        if pending is not None:
            raise ParseError("expectation pragma not attached to a declaration")
        return tuple(decls)

    def pragma(self, decls, pending):
        tok = self.advance()
        if tok.value in ("--expect-conv", "--expect-not-conv"):
            lhs = self.term()
            self.expect("=")
            rhs = self.term()
            self.expect(":")
            ty = self.term()
            decls.append(SConvD(lhs, rhs, ty,
                                tok.value == "--expect-conv", tok.line))
            return pending
        if pending is not None:
            self.fail("duplicate expectation pragma")
        if tok.value == "--expect-pass":
            return ("pass",)
        self.expect("(")
        cls = self.expect_kind("ident").value
        self.expect(")")
        if cls not in ERROR_CLASSES:
            raise ParseError(
                f"{tok.line}:{tok.col}: unknown error class {cls!r}"
            )
        return ("fail", cls)

    def def_decl(self, expect):
        line = self.expect("def").line
        name = self.name()
        binders = tuple(self.binder_groups())
        self.expect(":")
        ty = self.term()
        self.expect(":=")
        body = self.term()
        return SDefD(name, binders, ty, body, expect, line)

    def data_decl(self, expect):
        line = self.expect("data").line
        name = self.name()
        params = tuple(self.binder_groups())
        level = 0
        if self.at(":"):
            self.pos += 1
            tok = self.expect_kind("ident")
            m = _UNIVERSE.match(tok.value)
            if not m:
                self.fail("expected a universe after ':'")
            level = int(m.group(1))
        self.expect("where")
        ctors = []
        while self.at("|"):
            self.pos += 1
            label = self.name()
            binders = tuple(self.binder_groups())
            boundary = self.bracket_parts() if self.at("[") else ()
            ctors.append(SCtorD(label, binders, boundary))
        return SDataD(name, params, level, tuple(ctors), expect, line)


# --------------------------------------------------------------------------
# Elaboration
# --------------------------------------------------------------------------

class _Scope:
    """The names in scope, innermost first, and the sort of each."""

    __slots__ = ("names", "sorts")

    def __init__(self, names, sorts):
        self.names = names
        self.sorts = sorts

    def push(self, name, sort):
        return _Scope((name,) + self.names, (sort,) + self.sorts)

    def lookup(self, name):
        """The sort of the innermost `name` and its de Bruijn index among
        the names of that sort, or None when it is not in scope."""
        if name not in self.names:
            return None
        pos = self.names.index(name)
        sort = self.sorts[pos]
        return sort, self.sorts[:pos].count(sort)


def _unshift1(ix):
    """Index map out of a tube's binder, for a face that must not use it."""
    if ix == 0:
        raise ValueError("face mentions the bound interval variable")
    return ix - 1


# Elaborated declarations -------------------------------------------------

@dataclass(frozen=True)
class Definition:
    name: str
    ty: object
    body: object
    expect: tuple | None


@dataclass(frozen=True)
class DataDefinition:
    sig: HitSignature
    expect: tuple | None


@dataclass(frozen=True)
class ConvCheck:
    name: str
    ty: object
    lhs: object
    rhs: object
    want_equal: bool


@dataclass(frozen=True)
class Module:
    decls: tuple


AMBIENT_CLOCK = "k0"


class Elaborator:
    """Resolves one surface declaration at a time, accumulating the names
    of earlier definitions and data signatures."""

    def __init__(self):
        self.defs = set()
        self.sigs = {}
        self.labels = {}  # label -> signature name
        self.conv_count = 0

    def base_scope(self):
        return _Scope((AMBIENT_CLOCK,), (CLOCK,))

    def decl(self, d):
        match d:
            case SDefD():
                return self.def_decl(d)
            case SDataD():
                return self.data_decl(d)
            case SConvD():
                return self.conv_decl(d)
        raise TypeError(f"not a declaration: {d!r}")

    def decl_name(self, d):
        match d:
            case SDefD(name=name) | SDataD(name=name):
                return name
            case SConvD():
                return f"conv{self.conv_count + 1}"
        raise TypeError(f"not a declaration: {d!r}")

    def def_decl(self, d):
        if d.name in self.defs or d.name in self.sigs or d.name in self.labels:
            raise ParseError(f"line {d.line}: {d.name!r} is already declared")
        sc = self.base_scope()
        doms = []
        for nm, tyS in d.binders:
            doms.append(self.term(sc, tyS))
            sc = sc.push(nm, TERM)
        ty = self.term(sc, d.ty)
        body = self.term(sc, d.body)
        for dom in reversed(doms):
            ty = Pi(dom, ty)
            body = Lam(body)
        self.defs.add(d.name)
        return Definition(d.name, ty, body, d.expect)

    def conv_decl(self, d):
        sc = self.base_scope()
        self.conv_count += 1
        return ConvCheck(f"conv{self.conv_count}", self.term(sc, d.ty),
                         self.term(sc, d.lhs), self.term(sc, d.rhs),
                         d.want_equal)

    # -- terms -------------------------------------------------------------

    def term(self, sc, s):
        match s:
            case SVar(name):
                hit = sc.lookup(name)
                if hit is not None:
                    sort, ix = hit
                    if sort != TERM:
                        raise ParseError(
                            f"{name!r} is a {sort} variable, not a term"
                        )
                    return Var(ix)
                return self.head(sc, name, [])
            case SU(level):
                return U(level)
            case SPi(name, dom, cod):
                d = self.term(sc, dom)
                return Pi(d, self.term(sc.push(name or "_", TERM), cod))
            case SLam(name, body):
                return Lam(self.term(sc.push(name, TERM), body))
            case SPLam(name, body):
                return PLam(self.term(sc.push(name, IVAL), body))
            case SCLam(name, body):
                return CLam(self.term(sc.push(name, CLOCK), body))
            case SForall(name, body):
                return Forall(self.term(sc.push(name, CLOCK), body))
            case SLater(tick, clock, body):
                k = self.clock(sc, clock)
                return Later(k, self.term(sc.push(tick, TICK), body))
            case STickLam(tick, clock, body):
                k = self.clock(sc, clock)
                return TickLam(k, self.term(sc.push(tick, TICK), body))
            case SApp():
                spine = []
                t = s
                while isinstance(t, SApp):
                    spine.append(t.arg)
                    t = t.fn
                spine.reverse()
                if isinstance(t, SVar) and sc.lookup(t.name) is None:
                    return self.head(sc, t.name, spine)
                out = self.term(sc, t)
                for arg in spine:
                    out = App(out, self.term(sc, arg))
                return out
            case SAt(fn, arg):
                return PApp(self.term(sc, fn), self.ival(sc, arg))
            case SCApp(fn, clock):
                return CApp(self.term(sc, fn), self.clock(sc, clock))
            case STickApp(fn, tick):
                return TickApp(self.term(sc, fn), self.tick(sc, tick))
            case SForce(bind, fn, clock, tick):
                k = self.clock(sc, clock)
                u = self.tick(sc, tick)
                inner = self.term(sc.push(bind or "_", CLOCK), fn)
                return ForceApp(inner, k, u)
            case SPath(ty, left, right):
                return PathT(self.term(sc, ty), self.term(sc, left),
                             self.term(sc, right))
            case SDFix(clock, fn):
                return DFix(self.clock(sc, clock), self.term(sc, fn))
            case SPFix(clock, fn):
                return PFix(self.clock(sc, clock), self.term(sc, fn))
            case SComp(ivar, ty, parts, base):
                if ty is None:
                    raise ParseError("comp needs a type annotation")
                sci = sc.push(ivar, IVAL)
                faces, tube = self.tube_parts(sc, sci, parts)
                return Comp(self.term(sci, ty), face_join(faces),
                            System(tube), self.term(sc, base))
            case SHComp(ivar, ty, parts, base):
                if ty is None:
                    raise ParseError("hcomp needs a type annotation")
                sci = sc.push(ivar, IVAL)
                faces, tube = self.tube_parts(sc, sci, parts)
                return HComp(self.term(sc, ty), face_join(faces),
                             System(tube), self.term(sc, base))
            case STrans(ivar, ty, face, base):
                phi = FBOT if face is None else self.face(sc, face)
                return Trans(self.term(sc.push(ivar, IVAL), ty), phi,
                             self.term(sc, base))
            case SSystem(parts):
                out = []
                for phi, t in parts:
                    out.append((self.face(sc, phi), self.term(sc, t)))
                return System(tuple(out))
            case SClockElim():
                return self.clockelim(sc, s)
            case SClockBind():
                raise ParseError(
                    "a clock binder must be forced with '[clock, tick]'"
                )
            case SNum() | SMeet() | SJoin() | SNeg() | SFEq():
                raise ParseError(
                    "interval or face expression used in term position"
                )
            case SDiamond() | STirr():
                raise ParseError("tick expression used in term position")
        raise TypeError(f"not a surface term: {s!r}")

    def tube_parts(self, sc, sci, parts):
        faces, tube = [], []
        for phi, t in parts:
            if t is None:
                raise ParseError("a tube component needs '-> term'")
            f = self.face(sc, phi)
            faces.append(f)
            tube.append((weaken_iv(f, [IVAL]), self.term(sci, t)))
        return faces, tuple(tube)

    def head(self, sc, name, spine):
        if name in self.defs:
            out = TopRef(name)
            for arg in spine:
                out = App(out, self.term(sc, arg))
            return out
        if name in self.sigs:
            sig = self.sigs[name]
            want = len(sig.params.types)
            if len(spine) != want:
                raise ParseError(
                    f"{name} takes {want} parameters, got {len(spine)}"
                )
            return Hit(name, tuple(self.term(sc, a) for a in spine))
        if name in self.labels:
            sig = self.sigs[self.labels[name]]
            ctor = sig.constructor(name)
            p = len(sig.params.types)
            a = len(ctor.args.types)
            r = len(ctor.rec_arities)
            v = ctor.ivar_count
            if len(spine) == p + a + r + v:
                params = tuple(self.term(sc, x) for x in spine[:p])
                rest = spine[p:]
            elif len(spine) == a + r + v:
                params, rest = (), spine
            else:
                # Let the checker report the arity error.
                return Con(sig.name, name,
                           (), tuple(self.term(sc, x) for x in spine), (), ())
            return Con(
                sig.name, name, params,
                tuple(self.term(sc, x) for x in rest[:a]),
                tuple(self.term(sc, x) for x in rest[a:a + r]),
                tuple(self.ival(sc, x) for x in rest[a + r:]),
            )
        raise UnboundVariable(f"unbound name {name!r}", name=name)

    def clockelim(self, sc, s):
        sig = self.sigs.get(s.hit)
        if sig is None:
            raise UnboundVariable(f"unbound name {s.hit!r}", name=s.hit)
        if len(s.params) != len(sig.params.types):
            raise ParseError(
                f"{s.hit} takes {len(sig.params.types)} parameters,"
                f" got {len(s.params)}"
            )
        params = tuple(self.term(sc, x) for x in s.params)
        scrut = self.term(sc, s.scrut)
        motive = self.term(sc.push(s.hvar, TERM), s.motive)
        cases = []
        for c in s.cases:
            try:
                ctor = sig.constructor(c.label)
            except KeyError:
                raise ParseError(
                    f"{s.hit} has no constructor {c.label!r}"
                ) from None
            a = len(ctor.args.types)
            r = len(ctor.rec_arities)
            v = ctor.ivar_count
            if len(c.names) != a + 2 * r + v:
                raise ParseError(
                    f"case for {c.label} binds {a + 2 * r + v} names,"
                    f" got {len(c.names)}"
                )
            sc2 = sc
            for nm in c.names[:a + 2 * r]:
                sc2 = sc2.push(nm, TERM)
            for nm in c.names[a + 2 * r:]:
                sc2 = sc2.push(nm, IVAL)
            cases.append(ElimCase(c.label, a, r, v, self.term(sc2, c.body)))
        return ClockElim(s.hit, s.n, params, motive, tuple(cases), scrut)

    # -- other sorts -------------------------------------------------------

    def clock(self, sc, name):
        hit = sc.lookup(name)
        if hit is None or hit[0] != CLOCK:
            raise ParseError(f"{name!r} is not a clock variable in scope")
        return hit[1]

    def ival(self, sc, s):
        match s:
            case SNum(0):
                return IZERO
            case SNum(1):
                return IONE
            case SVar(name):
                hit = sc.lookup(name)
                if hit is None or hit[0] != IVAL:
                    raise ParseError(
                        f"{name!r} is not an interval variable in scope"
                    )
                return IVar(hit[1])
            case SNeg(arg):
                return INeg(self.ival(sc, arg))
            case SMeet(left, right):
                return IMeet(self.ival(sc, left), self.ival(sc, right))
            case SJoin(left, right):
                return IJoin(self.ival(sc, left), self.ival(sc, right))
        raise ParseError(f"expected an interval expression")

    def face(self, sc, s):
        match s:
            case SNum(0):
                return FBOT
            case SNum(1):
                return FTOP
            case SFEq(name, end):
                hit = sc.lookup(name)
                if hit is None or hit[0] != IVAL:
                    raise ParseError(
                        f"{name!r} is not an interval variable in scope"
                    )
                return FEq(hit[1], end)
            case SMeet(left, right):
                return FAnd(self.face(sc, left), self.face(sc, right))
            case SJoin(left, right):
                return FOr(self.face(sc, left), self.face(sc, right))
        raise ParseError("expected a face formula")

    def tick(self, sc, s):
        match s:
            case SDiamond():
                return Diamond()
            case SVar(name):
                hit = sc.lookup(name)
                if hit is None or hit[0] != TICK:
                    raise ParseError(
                        f"{name!r} is not a tick variable in scope"
                    )
                return TickVar(hit[1])
            case STirr(left, right, at):
                return Tirr(self.tick(sc, left), self.tick(sc, right),
                            self.ival(sc, at))
        raise ParseError("expected a tick expression")

    # -- data declarations -------------------------------------------------

    def data_decl(self, d):
        if d.name in self.defs or d.name in self.sigs or d.name in self.labels:
            raise ParseError(f"line {d.line}: {d.name!r} is already declared")
        sc = self.base_scope()
        ptypes = []
        for nm, tyS in d.params:
            ptypes.append(self.term(sc, tyS))
            sc = sc.push(nm, TERM)
        # Syntactic arities first so boundaries may mention any label.
        arities = {}
        for c in d.ctors:
            if c.label in self.labels or c.label in self.defs \
                    or c.label in self.sigs or c.label in arities:
                raise ParseError(
                    f"line {d.line}: {c.label!r} is already declared"
                )
            arities[c.label] = self._ctor_shape(d.name, c)
        ctors = tuple(self.ctor(d.name, sc, c, arities) for c in d.ctors)
        sig = HitSignature(d.name, Telescope(tuple(ptypes)), d.level, ctors)
        self.sigs[d.name] = sig
        for c in d.ctors:
            self.labels[c.label] = d.name
        return DataDefinition(sig, d.expect)

    @staticmethod
    def _rec_target(name, tyS):
        t = tyS
        while isinstance(t, SPi):
            t = t.cod
        if t == SVar(name):
            return True
        while isinstance(t, SApp):
            t = t.fn
        return t == SVar(name)

    def _ctor_shape(self, name, c):
        a = v = 0
        rec_lens = []
        for nm, tyS in c.binders:
            if tyS == SVar("I"):
                v += 1
            elif self._rec_target(name, tyS):
                depth = 0
                t = tyS
                while isinstance(t, SPi):
                    depth += 1
                    t = t.cod
                rec_lens.append(depth)
            else:
                a += 1
        return a, len(rec_lens), v, tuple(rec_lens)

    def ctor(self, name, sc_params, c, arities):
        atypes, recs = [], []
        recnames, ivnames = [], []
        sc = sc_params
        phase = 0
        for nm, tyS in c.binders:
            if tyS == SVar("I"):
                phase = 2
                ivnames.append(nm)
            elif self._rec_target(name, tyS):
                if phase == 2:
                    raise ParseError(
                        f"{c.label}: recursive argument {nm!r} after an"
                        " interval binder"
                    )
                phase = 1
                doms = []
                sc_r, t = sc, tyS
                while isinstance(t, SPi):
                    doms.append(self.term(sc_r, t.dom))
                    sc_r = sc_r.push(t.name or "_", TERM)
                    t = t.cod
                recs.append(Telescope(tuple(doms)))
                recnames.append(nm)
            else:
                if phase != 0:
                    raise ParseError(
                        f"{c.label}: ordinary argument {nm!r} after a"
                        " recursive or interval binder"
                    )
                atypes.append(self.term(sc, tyS))
                sc = sc.push(nm, TERM)
        sc_b = sc
        for nm in ivnames:
            sc_b = sc_b.push(nm, IVAL)
        recmap = {nm: j for j, nm in enumerate(recnames)}
        arrows, bare = [], None
        afaces = []
        for phiS, bS in c.boundary:
            phi = self.face(sc_b, phiS)
            if bS is None:
                if bare is not None:
                    raise ParseError(
                        f"{c.label}: at most one bare face entry"
                    )
                bare = phi
            else:
                if bare is not None:
                    raise ParseError(
                        f"{c.label}: bare face entries must come last"
                    )
                afaces.append(phi)
                arrows.append((phi, self.bnd(sc_b, recmap, arities, bS)))
        if bare is not None:
            afaces.append(bare)
        face = face_join(afaces)
        return Constructor(c.label, Telescope(tuple(atypes)), tuple(recs),
                           len(ivnames), face, tuple(arrows))

    def bnd(self, sc, recmap, arities, s):
        match s:
            case SVar(name) if name in recmap:
                return BRec(recmap[name], ())
            case SVar(name) if name in arities:
                return self._bnd_con(sc, recmap, arities, name, [])
            case SApp():
                spine = []
                t = s
                while isinstance(t, SApp):
                    spine.append(t.arg)
                    t = t.fn
                spine.reverse()
                if isinstance(t, SVar) and t.name in recmap:
                    return BRec(recmap[t.name],
                                tuple(self.term(sc, x) for x in spine))
                if isinstance(t, SVar) and t.name in arities:
                    return self._bnd_con(sc, recmap, arities, t.name, spine)
            case SHComp(ivar, ty, parts, base):
                if ty is not None:
                    raise ParseError(
                        "a boundary hcomp carries no type annotation"
                    )
                if len(parts) != 1 or parts[0][1] is None:
                    raise ParseError(
                        "a boundary hcomp has exactly one tube component"
                    )
                phi = self.face(sc, parts[0][0])
                tube = self.bnd(sc.push(ivar, IVAL), recmap, arities,
                                parts[0][1])
                return BHComp(phi, tube, self.bnd(sc, recmap, arities, base))
        raise ParseError(
            "a boundary term is a recursive argument, a constructor, or an"
            " hcomp"
        )

    def _bnd_con(self, sc, recmap, arities, label, spine):
        a, r, v, rec_lens = arities[label]
        if len(spine) != a + r + v:
            raise ParseError(
                f"boundary constructor {label} expects {a + r + v}"
                f" arguments, got {len(spine)}"
            )
        recs = []
        for k, x in enumerate(spine[a:a + r]):
            m = rec_lens[k]
            if m == 0:
                recs.append(self.bnd(sc, recmap, arities, x))
            elif isinstance(x, SVar) and x.name in recmap:
                # A function-valued slot: fill it with the recursive
                # argument applied to the slot's own binders.
                recs.append(BRec(recmap[x.name],
                                 tuple(Var(m - 1 - q) for q in range(m))))
            else:
                raise ParseError(
                    f"argument {k} of {label} in a boundary must be a"
                    " recursive argument name"
                )
        return BCon(
            label,
            tuple(self.term(sc, x) for x in spine[:a]),
            tuple(recs),
            tuple(self.ival(sc, x) for x in spine[a + r:]),
        )


def surface_module(text):
    return _Parser(tokenize(text)).module()


def parse_module(text):
    elab = Elaborator()
    return Module(tuple(elab.decl(d) for d in surface_module(text)))


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

class _Printer:
    def __init__(self, taken):
        self.taken = set(taken)
        self.counters = {}

    def fresh(self, prefix):
        n = self.counters.get(prefix, 0)
        while f"{prefix}{n}" in self.taken:
            n += 1
        self.counters[prefix] = n + 1
        name = f"{prefix}{n}"
        self.taken.add(name)
        return name

    @staticmethod
    def lookup(env, sort, ix):
        return env[sort][-1 - ix]

    @staticmethod
    def push(env, sort, name):
        out = dict(env)
        out[sort] = out[sort] + [name]
        return out

    def atom(self, env, t):
        s = self.term(env, t)
        if isinstance(t, (Var, TopRef, U)):
            return s
        if isinstance(t, Hit) and not t.params:
            return s
        if isinstance(t, Con) and not (t.params or t.args or t.recs
                                       or t.ivals):
            return s
        return f"({s})"

    def term(self, env, t):
        match t:
            case Var(ix):
                return self.lookup(env, TERM, ix)
            case TopRef(name):
                return name
            case U(level):
                return f"U{level}"
            case Pi(dom, cod):
                nm = self.fresh("x")
                env2 = self.push(env, TERM, nm)
                return f"({nm} : {self.term(env, dom)})" \
                    f" -> {self.term(env2, cod)}"
            case Lam(body):
                nm = self.fresh("x")
                return f"\\{nm}. {self.term(self.push(env, TERM, nm), body)}"
            case App():
                spine = []
                while isinstance(t, App):
                    spine.append(t.arg)
                    t = t.fn
                spine.reverse()
                args = " ".join(self.atom(env, a) for a in spine)
                return f"{self.atom(env, t)} {args}"
            case PathT(ty, left, right):
                return f"Path {self.atom(env, ty)} {self.atom(env, left)}" \
                    f" {self.atom(env, right)}"
            case PLam(body):
                nm = self.fresh("i")
                return f"<{nm}> {self.term(self.push(env, IVAL, nm), body)}"
            case PApp(fn, arg):
                return f"{self.atom(env, fn)} @ {self.iv(env, arg)}"
            case Forall(body):
                nm = self.fresh("k")
                return f"forall {nm}." \
                    f" {self.term(self.push(env, CLOCK, nm), body)}"
            case CLam(body):
                nm = self.fresh("k")
                return f"/\\{nm}." \
                    f" {self.term(self.push(env, CLOCK, nm), body)}"
            case CApp(fn, clock):
                return f"{self.atom(env, fn)}" \
                    f" {{{self.lookup(env, CLOCK, clock)}}}"
            case Later(clock, ty):
                nm = self.fresh("a")
                env2 = self.push(env, TICK, nm)
                return f"|> ({nm} : {self.lookup(env, CLOCK, clock)})" \
                    f" {self.atom(env2, ty)}"
            case TickLam(clock, body):
                nm = self.fresh("a")
                env2 = self.push(env, TICK, nm)
                return f"tick {nm} : {self.lookup(env, CLOCK, clock)}." \
                    f" {self.term(env2, body)}"
            case TickApp(fn, tick):
                return f"{self.atom(env, fn)} [{self.tick(env, tick)}]"
            case ForceApp(fn, clock, tick):
                nm = self.fresh("k")
                env2 = self.push(env, CLOCK, nm)
                return f"({nm}. {self.term(env2, fn)})" \
                    f" [{self.lookup(env, CLOCK, clock)}," \
                    f" {self.tick(env, tick)}]"
            case DFix(clock, fn):
                return f"dfix {self.lookup(env, CLOCK, clock)}" \
                    f" {self.atom(env, fn)}"
            case PFix(clock, fn):
                return f"pfix {self.lookup(env, CLOCK, clock)}" \
                    f" {self.atom(env, fn)}"
            case Comp(ty, face, tube, base):
                return self._comp(env, "comp", ty, face, tube, base,
                                  ty_under_ivar=True)
            case HComp(ty, face, tube, base):
                return self._comp(env, "hcomp", ty, face, tube, base,
                                  ty_under_ivar=False)
            case Trans(ty, face, base):
                nm = self.fresh("i")
                env2 = self.push(env, IVAL, nm)
                return f"trans^{nm} {self.atom(env2, ty)}" \
                    f" [{self.iv(env, face)}] {self.atom(env, base)}"
            case Hit(name, params):
                if not params:
                    return name
                args = " ".join(self.atom(env, p) for p in params)
                return f"{name} {args}"
            case Con(_, label, params, args, recs, ivals):
                parts = [label]
                parts += [self.atom(env, x) for x in params]
                parts += [self.atom(env, x) for x in args]
                parts += [self.atom(env, x) for x in recs]
                parts += [self.iv(env, x) for x in ivals]
                return " ".join(parts)
            case ClockElim(name, n, params, motive, cases, arg):
                nm = self.fresh("h")
                env2 = self.push(env, TERM, nm)
                out = [f"clockelim^{n} {name}"]
                out += [self.atom(env, p) for p in params]
                out.append(self.atom(env, arg))
                out.append(f"into ({nm}. {self.term(env2, motive)}) with")
                for c in cases:
                    out.append(self._case(env, c))
                return " ".join(out)
            case System(parts):
                inner = ", ".join(
                    f"{self.iv(env, phi)} -> {self.term(env, u)}"
                    for phi, u in parts
                )
                return f"[{inner}]"
        raise ValueError(f"no surface syntax for {t!r}")

    def _comp(self, env, kw, ty, face, tube, base, ty_under_ivar):
        nm = self.fresh("i")
        env2 = self.push(env, IVAL, nm)
        if not isinstance(tube, System):
            raise ValueError(f"{kw} tube has no surface syntax")
        entries = []
        outer = []
        for phi, u in tube.parts:
            phi0 = iv_rename(phi, _unshift1)
            outer.append(phi0)
            entries.append(f"{self.iv(env, phi0)} -> {self.term(env2, u)}")
        if face_join(outer) != face:
            raise ValueError(f"{kw} extent has no surface syntax")
        ty_env = env2 if ty_under_ivar else env
        return f"{kw}^{nm} {self.atom(ty_env, ty)}" \
            f" [{', '.join(entries)}] {self.atom(env, base)}"

    def _case(self, env, c):
        names = []
        env2 = env
        for _ in range(c.n_args + 2 * c.n_recs):
            nm = self.fresh("x")
            names.append(nm)
            env2 = self.push(env2, TERM, nm)
        for _ in range(c.n_ivars):
            nm = self.fresh("i")
            names.append(nm)
            env2 = self.push(env2, IVAL, nm)
        binder = " ".join([c.label] + names)
        return f"| {binder} => {self.term(env2, c.body)}"

    def tick(self, env, u):
        match u:
            case TickVar(ix):
                return self.lookup(env, TICK, ix)
            case Diamond():
                return "<>"
            case Tirr(left, right, at):
                return f"tirr({self.tick(env, left)}," \
                    f" {self.tick(env, right)}, {self.iv(env, at)})"
        raise ValueError(f"not a tick: {u!r}")

    def iv(self, env, x):
        """An interval expression or a face; meets and joins come
        parenthesized."""
        def literal(ix, end):
            name = self.lookup(env, IVAL, ix)
            if type(x) is Face:
                return f"({name} = {end})"
            return name if end else f"~{name}"
        return iv_show(x, literal)


def _base_env():
    return {TERM: [], CLOCK: [AMBIENT_CLOCK], TICK: [], IVAL: []}


def _expect_line(expect):
    if expect is None:
        return None
    if expect[0] == "pass":
        return "--expect-pass"
    return f"--expect-fail({expect[1]})"


def print_module(module):
    taken = {AMBIENT_CLOCK, "I"} | set(RESERVED)
    for d in module.decls:
        match d:
            case Definition(name=name):
                taken.add(name)
            case DataDefinition(sig=sig):
                taken.add(sig.name)
                taken.update(c.label for c in sig.constructors)
    chunks = []
    for d in module.decls:
        pr = _Printer(taken)
        match d:
            case Definition(name, ty, body, expect):
                lines = []
                if (p := _expect_line(expect)) is not None:
                    lines.append(p)
                env = _base_env()
                lines.append(f"def {name} : {pr.term(env, ty)}"
                             f" := {pr.term(env, body)}")
                chunks.append("\n".join(lines))
            case DataDefinition(sig, expect):
                chunks.append(_print_data(pr, sig, expect))
            case ConvCheck(_, ty, lhs, rhs, want):
                env = _base_env()
                kw = "--expect-conv" if want else "--expect-not-conv"
                chunks.append(f"{kw} {pr.term(env, lhs)} ="
                              f" {pr.term(env, rhs)} : {pr.term(env, ty)}")
    return "\n\n".join(chunks) + "\n"


def _print_data(pr, sig, expect):
    lines = []
    if (p := _expect_line(expect)) is not None:
        lines.append(p)
    env = _base_env()
    params = []
    for ty in sig.params.types:
        nm = pr.fresh("p")
        params.append(f"({nm} : {pr.term(env, ty)})")
        env = pr.push(env, TERM, nm)
    head = " ".join(["data", sig.name] + params + [f": U{sig.level}", "where"])
    lines.append(head)
    for ctor in sig.constructors:
        lines.append("  " + _print_ctor(pr, env, sig, ctor))
    return "\n".join(lines)


def _print_ctor(pr, env, sig, ctor):
    parts = ["|", ctor.label]
    for ty in ctor.args.types:
        nm = pr.fresh("x")
        parts.append(f"({nm} : {pr.term(env, ty)})")
        env = pr.push(env, TERM, nm)
    recnames = []
    for arity in ctor.rec_arities:
        nm = pr.fresh("r")
        recnames.append(nm)
        env2 = env
        chain = []
        for ty in arity.types:
            bn = pr.fresh("b")
            chain.append(f"({bn} : {pr.term(env2, ty)}) -> ")
            env2 = pr.push(env2, TERM, bn)
        parts.append(f"({nm} : {''.join(chain)}{sig.name})")
    for _ in range(ctor.ivar_count):
        nm = pr.fresh("i")
        parts.append(f"({nm} : I)")
        env = pr.push(env, IVAL, nm)
    entries = []
    for phi, b in ctor.boundary:
        entries.append(f"{pr.iv(env, phi)} ->"
                       f" {_print_bnd(pr, env, recnames, sig, b)}")
    # The bare entry is what the face has beyond the arrows' faces.
    afold = face_join(phi for phi, _ in ctor.boundary)
    bare = Face(ctor.face - afold)
    if FOr(afold, bare) != ctor.face:
        raise ValueError("constructor face has no surface syntax")
    if bare:
        entries.append(pr.iv(env, bare))
    if entries:
        parts.append(f"[{', '.join(entries)}]")
    return " ".join(parts)


def _print_bnd(pr, env, recnames, sig, b, atom=False):
    match b:
        case BRec(rec, args):
            parts = [recnames[rec]] + [pr.atom(env, x) for x in args]
        case BCon(label, args, recs, ivals):
            target = sig.constructor(label)
            parts = [label]
            parts += [pr.atom(env, x) for x in args]
            for k, x in enumerate(recs):
                m = len(target.rec_arities[k].types)
                if m == 0:
                    parts.append(_print_bnd(pr, env, recnames, sig, x,
                                            atom=True))
                else:
                    eta = tuple(Var(m - 1 - q) for q in range(m))
                    if not (isinstance(x, BRec) and x.args == eta):
                        raise ValueError(
                            "boundary term has no surface syntax"
                        )
                    parts.append(recnames[x.rec])
            parts += [pr.iv(env, x) for x in ivals]
        case BHComp(face, tube, base):
            nm = pr.fresh("i")
            env2 = pr.push(env, IVAL, nm)
            parts = [
                f"hcomp^{nm} [{pr.iv(env, face)} ->"
                f" {_print_bnd(pr, env2, recnames, sig, tube)}]",
                _print_bnd(pr, env, recnames, sig, base, atom=True),
            ]
        case _:
            raise ValueError(f"not a boundary term: {b!r}")
    s = " ".join(parts)
    if atom and len(parts) > 1:
        return f"({s})"
    return s
