"""Surface syntax: tokenizer, parser to kernel syntax, and printer.

`tokenize` is one `findall` of one regular expression whose every match
is a token and the text skipped after it, so a token is its string, its
kind follows from its first character (`token_kind`), and only a message
counts lines, by scanning the text up to its token (`position`).  The
parser, `Elaborator`, is recursive descent over the token list with an
index cursor.  Binary operators are parsed by precedence climbing, all
left associative, from the loosest: `\\/` < `/\\` < `@` < application;
interval expressions and faces have the two lattice operators only.

The surface language uses named variables.  The parser reads a module in
one pass straight to the sort-indexed de Bruijn representation of
`syntax`: each method resolves the names it reads in the scope it is
given, and splits constructor and data type spines using the data
signatures declared earlier in the module.  A constructor's boundary is
read to kernel terms over its telescope: a recursive argument is a term
variable there, but only as the head of a boundary term, never inside an
ordinary argument.  A syntax error fails the whole module; any other error
fails only its declaration.  The printer
emits surface text that reparses to the same kernel declarations.
Interval expressions and faces are read as their normal forms
(`interval`) and print as them, so `~~i` prints as `i`.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import (
    ERROR_CLASSES, ArityMismatch, CcttError, ParseError, UnboundVariable,
)
from .interval import (
    FAnd, FBOT, FEq, FOr, FTOP, Face, IJoin, IMeet, INeg, IONE, IVar, IZERO,
    face_join, iv_rename, iv_show,
)
from .syntax import (
    App, CApp, CLam, ClockElim, Comp, Con, Constructor, DFix, Diamond,
    ElimCase, ForceApp, Forall, HComp, Hit, HitSignature, Lam, Later, PApp,
    PFix, PLam, PathT, Pi, System, Telescope, TickApp, TickLam, TickVar,
    Tirr, TopRef, Trans, U, Var,
    CLOCK, IVAL, TERM, TICK, record, weaken, weaken_iv,
)

RESERVED = {
    "Path", "forall", "tick", "tirr", "dfix", "pfix", "comp", "hcomp",
    "trans", "data", "where", "def", "clockelim", "into", "with", "I",
}

_UNIVERSE = re.compile(r"U([0-9]+)$")

# Whitespace, newlines and comments: `--` not starting a pragma.
_SKIP_RE = re.compile(
    r"(?:\s+|--(?!expect-(?:not-conv|pass|fail|conv))[^\n]*)*")
# A token, captured, and the text skipped after it.  The alternatives are
# tried in order, so a token's first character tells its kind, except that
# a character that starts no other token is a bad token of its own.
_TOKEN_RE = re.compile(
    r"""(
      --expect-(?:not-conv|pass|fail|conv)    # pragma
    | [A-Za-z_][A-Za-z0-9_']*                 # ident
    | [0-9]+                                  # num
    | ->|:=|=>|/\\|\\/|\|>|<>|[()\[\]{}<>,.:=|^@~\\]  # sym
    | \S                                      # bad
    )""" + _SKIP_RE.pattern,
    re.VERBOSE,
)
_SYMBOLS = frozenset(("->", ":=", "=>", "/\\", "\\/", "|>", "<>",
                      *"()[]{}<>,.:=|^@~\\"))
_FIRST = {**dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                          "abcdefghijklmnopqrstuvwxyz_", "ident"),
          **dict.fromkeys("0123456789", "num")}


def token_kind(tok):
    """What `_TOKEN_RE` matched tok as: "pragma", "ident", "num", "sym",
    "eof" for the empty string, or None for a bad character."""
    if tok in _SYMBOLS:
        return "sym"
    if tok[:2] == "--":
        return "pragma"
    return _FIRST.get(tok[:1], None if tok else "eof")


def tokenize(text):
    """The token strings of text, ending in "" for the end of input."""
    toks = _TOKEN_RE.findall(text, _SKIP_RE.match(text).end())
    bad = [tok for tok in set(toks) if token_kind(tok) is None]
    if bad:
        i = min(map(toks.index, bad))
        line, col = position(text, i)
        raise ParseError(f"{line}:{col}: unexpected character {toks[i]!r}")
    toks.append("")
    return toks


def position(text, i):
    """The line and column of token i of `tokenize(text)`, from 1."""
    pos = _SKIP_RE.match(text).end()
    for m in islice(_TOKEN_RE.finditer(text, pos), i):
        pos = m.end()
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


# --------------------------------------------------------------------------
# Parsing to kernel syntax
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


# Declarations ------------------------------------------------------------

@record
class Definition:
    name: str
    ty: object
    body: object
    expect: tuple | None


@record
class DataDefinition:
    sig: HitSignature
    expect: tuple | None


@record
class ConvCheck:
    name: str
    ty: object
    lhs: object
    rhs: object
    want_equal: bool


@record
class Module:
    decls: tuple


AMBIENT_CLOCK = "k0"
_BASE_SCOPE = _Scope((AMBIENT_CLOCK,), (CLOCK,))

# What a term's tokens are read as, besides a term (TERM) and an interval
# expression (IVAL, a constructor's interval arguments): a boundary term,
# and a constructor binder's type, which is a recursive argument's when it
# ends in the data type being declared.
_BOUNDARY = "boundary"
_REC_TYPE = "rec-type"

# The end of a recursive argument's type: the data type, applied.
_RECURSIVE = object()

_IV_IN_TERM = "interval or face expression used in term position"
# The error for a construct that a position of the mode cannot hold, where
# it differs from the construct's error in term position.
_MISPLACED = {
    IVAL: "expected an interval expression",
    _BOUNDARY: "a boundary term is a recursive argument, a constructor, or"
               " an hcomp",
}
# What a construct with an error is read as, so that the parse goes on.
_PLACEHOLDER = {TERM: U(0), _REC_TYPE: U(0), IVAL: IZERO, _BOUNDARY: U(0)}
_ARTICLE = {CLOCK: "a clock", IVAL: "an interval", TICK: "a tick"}

# Binary operators by token value, with their precedence.
_LATTICE_OPS = {"\\/": 1, "/\\": 2}
_TERM_OPS = {**_LATTICE_OPS, "@": 3}
# Tokens that continue a term past an application's argument atoms, as far
# as they are read ahead: an operator, a suffix, or an atom whose end is
# not known ahead.
_CONTINUES = frozenset(("@", "/\\", "\\/", "->", "{", "[", "(", "~"))

# Binder forms `\x y. t`, `/\k. t`, `<i j> t` and `forall k. A`, by their
# first token: the term built for each name, its sort, and the token after
# the names.
_BINDERS = {"\\": (Lam, TERM, "."), "/\\": (CLam, CLOCK, "."),
            "<": (PLam, IVAL, ">"), "forall": (Forall, CLOCK, ".")}


@record
class _Boundary:
    """What a constructor's boundary is read with: the constructor's label,
    its recursive arguments by name (each its position and arity), and the
    data type's parameters as boundary terms see them, past the
    constructor's arguments and recursive arguments."""
    label: str
    recs: dict
    params: tuple


def _matching_parens(toks):
    """For each '(' token, the index of its ')', or None if it has none."""
    close = [None] * len(toks)
    opened = []
    for i, tok in enumerate(toks):
        if tok == "(":
            opened.append(i)
        elif tok == ")" and opened:
            close[opened.pop()] = i
    return close


class Elaborator:
    """Recursive descent over the tokens of `tokenize`, straight to kernel
    syntax.

    The token list ends in "" and every lookahead stops there, so the
    cursor reads the list by index.  A keyword or symbol is tested by its
    string (no two kinds share one), a kind by the module's table `kind`,
    and a name, an identifier other than a keyword, by the set `names`.

    Each method reads one construct in the `_Scope` it is given and returns
    its kernel form, resolving names against the scope and against the
    definitions and data types declared before; `mode` says what a term's
    tokens are read as.  Where a spine's reading depends on what follows
    its head, the parser looks ahead over the tokens: a parenthesis's match
    is computed once per module, so an argument atom is skipped in O(1).

    A syntax error raises `ParseError` for the whole module.  Any other
    error (a name out of scope or of the wrong sort, a misplaced construct)
    is kept, with its token, while the parse goes on: the declaration then
    stands for the earliest such error in it.
    """

    def __init__(self, text):
        self.text = text
        self.toks = toks = tokenize(text)
        self.kind = {tok: token_kind(tok) for tok in set(toks)}
        self.names = {tok for tok, kind in self.kind.items()
                      if kind == "ident" and tok not in RESERVED}
        self.pos = 0
        self.close = _matching_parens(toks)
        self.defs = set()
        self.sigs = {}
        self.labels = {}  # label -> signature name
        self.dropped = {}  # label -> name of a data type that failed
        self.conv_count = 0
        self.err = None  # the declaration's earliest: (token index, error)
        # While a data type is read: its name; in a boundary, what it is
        # read with, the constructors' shapes, and whether a head was not
        # among them.
        self.data_name = None
        self.bnd = None
        self.arities = {}
        self.unknown = False

    # -- the cursor ----------------------------------------------------------

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at(self, value):
        return self.toks[self.pos] == value

    def expect(self, value):
        tok = self.toks[self.pos]
        if tok != value:
            self.fail(f"expected {value!r}")
        self.pos += 1
        return tok

    def expect_kind(self, kind):
        tok = self.toks[self.pos]
        if self.kind[tok] != kind:
            self.fail(f"expected {kind!r}")
        self.pos += 1
        return tok

    def fail(self, msg):
        line, col = position(self.text, self.pos)
        got = self.toks[self.pos] or "end of input"
        raise ParseError(f"{line}:{col}: {msg}, found {got!r}")

    def error(self, pos, err):
        """Keep err, found at token pos, unless one before it is kept."""
        if self.err is None or pos < self.err[0]:
            self.err = (pos, err)

    def misplaced(self, pos, mode, msg=None):
        """Keep the error for a construct at pos that mode cannot hold (msg
        in term position); what to read it as instead."""
        self.error(pos, ParseError(_MISPLACED.get(mode, msg)))
        return _PLACEHOLDER[mode]

    # -- lookahead -----------------------------------------------------------

    def _arg_end(self, i):
        """The index past the argument atom at token i; None if none starts
        there, or if its end is not known ahead (`~` before a keyword)."""
        tok = self.toks[i]
        if tok in self.names or self.kind[tok] == "num":
            return i + 1
        if tok == "(":
            close = self.close[i]
            return None if close is None else close + 1
        if tok == "~":
            return i + 2 if self.toks[i + 1] == "I" \
                else self._arg_end(i + 1)
        return None

    def _at_arg_atom(self):
        tok = self.toks[self.pos]
        return tok in self.names or self.kind[tok] == "num" or tok == "(" \
            or tok == "~"

    def _spine(self, i):
        """The application at token i when its head is a name: the name's
        token, the tokens starting its argument atoms (with those inside
        parentheses around the head, as in `(c a) b`), and the token past
        them; None for any other head."""
        toks = self.toks
        tok = toks[i]
        if tok == "(":
            close = self.close[i]
            inner = None if close is None else self._spine(i + 1)
            if inner is None or inner[2] != close:
                return None
            head, args, j = inner[0], inner[1], close + 1
        elif tok in self.names and not _UNIVERSE.match(tok):
            head, args, j = i, [], i + 1
        else:
            return None
        while (end := self._arg_end(j)) is not None:
            args.append(j)
            j = end
        return head, args, j

    def _bare(self, lo, hi):
        """The name that tokens lo..hi-1 are, in parentheses or not; None
        when they are something else."""
        toks, close = self.toks, self.close
        while hi - lo > 2 and toks[lo] == "(" and close[lo] == hi - 1:
            lo += 1
            hi -= 1
        tok = toks[lo]
        if hi - lo == 1 and (tok in self.names or tok == "I") \
                and not _UNIVERSE.match(tok):
            return tok
        return None

    def _clock_binder(self, i):
        """The '(' of a clock binder `(k. t)` at token i, inside any
        parentheses around it alone; None when there is none."""
        toks, close = self.toks, self.close
        while toks[i + 1] == "(" and close[i] is not None \
                and close[i + 1] is not None and close[i] == close[i + 1] + 1:
            i += 1
        if toks[i + 1] in self.names and toks[i + 2] == ".":
            return i
        return None

    def _forced(self, i):
        """Whether token i starts `[clock, ...`."""
        return self.toks[i] == "[" and self.toks[i + 1] in self.names \
            and self.toks[i + 2] == ","

    # -- names ---------------------------------------------------------------

    def name(self):
        if self.toks[self.pos] not in self.names:
            self.fail("expected a name")
        return self.advance()

    def names1(self):
        out = [self.name()]
        while self.toks[self.pos] in self.names:
            out.append(self.advance())
        return out

    def bound(self, sc, sort, pos=None, name=None):
        """The index of a name of the given sort in scope, read here unless
        given."""
        if name is None:
            pos, name = self.pos, self.name()
        hit = sc.lookup(name)
        if hit is not None and hit[0] == sort:
            return hit[1]
        self.error(pos, ParseError(
            f"{name!r} is not {_ARTICLE[sort]} variable in scope"))
        return 0

    def name_term(self, sc, pos, name):
        hit = sc.lookup(name)
        if hit is not None:
            if hit[0] != TERM:
                self.error(pos, ParseError(
                    f"{name!r} is a {hit[0]} variable, not a term"))
            return Var(hit[1])
        if name in self.defs:
            return TopRef(name)
        if name in self.sigs or name in self.labels:
            return self.applied(sc, pos, name, ())
        # A constructor of a data type that failed names the data type.
        self.error(pos, UnboundVariable(f"unbound name {name!r}",
                                        name=self.dropped.get(name, name)))
        return _PLACEHOLDER[TERM]

    def applied(self, sc, pos, name, args):
        """The data type or constructor `name` applied to the argument
        atoms starting at the tokens `args`."""
        sig = self.sigs.get(name)
        cuts = None
        if sig is not None:
            want = len(sig.params.types)
            if len(args) != want:
                self.error(pos, ParseError(
                    f"{name} takes {want} parameters, got {len(args)}"))
        else:
            sig = self.sigs[self.labels[name]]
            ctor = sig.constructor(name)
            a = len(ctor.args.types)
            r = len(ctor.rec_arities)
            p = len(args) - a - r - ctor.ivar_count
            # A constructor's parameters may be left out.  With any other
            # count, the checker reports the arity error.
            cuts = (p, p + a, p + a + r) \
                if p in (0, len(sig.params.types)) else None
        vals = []
        for k, q in enumerate(args):
            self.pos = q
            vals.append(self.atom(sc, IVAL if cuts and k >= cuts[2]
                                  else TERM))
        if name in self.sigs:
            return Hit(name, tuple(vals))
        if cuts is None:
            return Con(sig.name, name, (), tuple(vals), (), ())
        p, pa, par = cuts
        return Con(sig.name, name, tuple(vals[:p]), tuple(vals[p:pa]),
                   tuple(vals[pa:par]), tuple(vals[par:]))

    # -- terms ---------------------------------------------------------------

    def term(self, sc, mode=TERM):
        start = self.pos
        value = self.toks[start]
        binder = _BINDERS.get(value)
        wrong = mode is IVAL or mode is _BOUNDARY
        if binder is not None:
            make, sort, close = binder
            self.pos += 1
            names = self.names1()
            self.expect(close)
            inner = sc
            for nm in names:
                inner = inner.push(nm, sort)
            t = self.term(inner)
            for _ in names:
                t = make(t)
        elif value == "tick":
            self.pos += 1
            nm = self.name()
            self.expect(":")
            k = self.bound(sc, CLOCK)
            self.expect(".")
            t = TickLam(k, self.term(sc.push(nm, TICK)))
        elif value == "(" and self._at_binder_group():
            doms, inner = self.binder_groups(sc)
            self.expect("->")
            t = self.term(inner, _REC_TYPE if mode is _REC_TYPE else TERM)
            for dom in reversed(doms):
                t = Pi(dom, t)
        else:
            saved = self.err
            t = self.binary(sc, mode)
            if not self.at("->"):
                return t
            self.pos += 1
            t = Pi(t, self.term(sc.push("_", TERM),
                                _REC_TYPE if mode is _REC_TYPE else TERM))
            if wrong:
                self.err = saved
        return self.misplaced(start, mode) if wrong else t

    def _at_binder_group(self):
        if not self.at("("):
            return False
        k = 1
        while self.toks[self.pos + k] in self.names:
            k += 1
        return k > 1 and self.toks[self.pos + k] == ":"

    def binder_groups(self, sc):
        """`(x y : A) ...`: a type per name, each read in the scope of the
        names before it, and the scope past them all."""
        doms = []
        while self._at_binder_group():
            self.pos += 1
            names = self.names1()
            self.expect(":")
            at = self.pos
            for nm in names:
                self.pos = at
                doms.append(self.term(sc))
                sc = sc.push(nm, TERM)
            self.expect(")")
        return doms, sc

    def binary(self, sc, mode, min_prec=1):
        """Operands joined by the operators that bind at least as tightly
        as `min_prec`, by precedence climbing.  The right operand of `@` is
        an interval atom; the lattice operators join interval expressions
        only."""
        start, saved = self.pos, self.err
        left = self.app(sc, mode)
        ok = True
        while True:
            prec = _TERM_OPS.get(self.toks[self.pos])
            if prec is None or prec < min_prec:
                return left if ok else _PLACEHOLDER[mode]
            self.pos += 1
            if ok and (mode is _BOUNDARY or (mode is IVAL) == (prec == 3)):
                self.err = saved
                self.misplaced(start, mode, _IV_IN_TERM)
                ok = False
            if prec == 3:
                right = self.iatom(sc)
            else:
                right = self.binary(sc, mode if ok else TERM, prec + 1)
            if ok:
                left = PApp(left, right) if prec == 3 else \
                    (IMeet if prec == 2 else IJoin)(left, right)

    def app(self, sc, mode=TERM):
        start = self.pos
        if mode is _REC_TYPE:
            found = self.head_spine(sc, mode)
            if found is not None:
                # The data type applied: its arguments are not elaborated.
                saved = self.err
                self.atoms(sc, found[1])
                self.err, self.pos = saved, found[2]
                return _RECURSIVE
            close = self.close[start] if self.at("(") else None
            if close is not None and self._arg_end(close + 1) is None \
                    and self.toks[close + 1] not in _CONTINUES:
                return self.atom(sc, mode)  # a type in parentheses
            mode = TERM
        saved = self.err
        tok = self.toks[start]
        j = self._clock_binder(start) if tok == "(" else None
        close = None if j is None else self.close[start]
        if close is not None and self._forced(close + 1):
            # `(k. t) [clock, tick]`: t is read under the clock binder.
            self.pos = j + 3
            t = self.term(sc.push(self.toks[j + 1], CLOCK))
            self.expect(")")
            self.pos = close + 1
        elif mode is IVAL or (
                # In a term, only a data type or constructor heads a spine
                # read whole.
                mode is TERM and self.kind[tok] == "ident"
                and tok not in self.labels
                and tok not in self.sigs
        ) or (found := self.head_spine(sc, mode)) is None:
            t = self.atom(sc, mode)
        else:
            name, args, end = found
            if mode is TERM:
                t = self.applied(sc, start, name, args)
            elif name in self.bnd.recs:
                t = self.rec_call(name, [
                    self.past_recs(u) for u in self.atoms(sc, args)])
            else:
                t = self.bnd_con(sc, start, name, args)
            self.pos = end
        binder = j is not None
        if mode is not TERM:
            if not self._at_arg_atom() \
                    and self.toks[self.pos] not in ("{", "["):
                return t
            self.err = saved
            self.misplaced(start, mode)
            t = _PLACEHOLDER[TERM]
        while True:
            value = self.toks[self.pos]
            if self._at_arg_atom():
                t = App(t, self.atom(sc))
            elif value == "{":
                self.pos += 1
                k = self.bound(sc, CLOCK)
                self.expect("}")
                t = CApp(t, k)
            elif value == "[":
                t = self.tick_suffix(sc, t, binder)
            else:
                return t if mode is TERM else _PLACEHOLDER[mode]
            binder = False

    def head_spine(self, sc, mode):
        """The application here when its head is read with all its
        arguments: a data type or constructor in a term; a recursive
        argument or a constructor making up a whole boundary term; the data
        type declared making up the end of a constructor binder's type.
        The head's name, the tokens starting its arguments, and the token
        past them; None for any other application."""
        start = self.pos
        tok = self.toks[start]
        if tok == "(":
            close = self.close[start]
            if close is None or self._arg_end(close + 1) is None:
                return None  # parentheses with nothing after them
        elif self.kind[tok] != "ident":
            return None
        found = self._spine(start)
        if found is None:
            return None
        head, args, end = found
        name = self.toks[head]
        if mode is TERM:
            if name not in self.labels and name not in self.sigs \
                    or sc.lookup(name) is not None:
                return None
        elif self.toks[end] in _CONTINUES or (
                name != self.data_name if mode is _REC_TYPE
                else name not in self.bnd.recs and name not in self.arities):
            return None
        return name, args, end

    def atoms(self, sc, args, mode=TERM):
        out = []
        for q in args:
            self.pos = q
            out.append(self.atom(sc, mode))
        return out

    def tick_suffix(self, sc, t, binder):
        """`t [u]`, or the forcing `t [clock, u]`; binder: t is a clock
        binder's body, read under it."""
        self.expect("[")
        if self.toks[self.pos] in self.names \
                and self.toks[self.pos + 1] == ",":
            k = self.bound(sc, CLOCK)
            self.pos += 1
            u = self.tick_expr(sc)
            self.expect("]")
            return ForceApp(t if binder else weaken(t, [CLOCK]), k, u)
        u = self.tick_expr(sc)
        if self.at(","):
            self.pos += 1
            self.fail("expected a clock name before ','")
        self.expect("]")
        if binder:
            self.fail("a clock binder must be applied to '[clock, tick]'")
        return TickApp(t, u)

    def tick_expr(self, sc):
        if self.at("<>"):
            self.pos += 1
            return Diamond()
        if self.at("tirr"):
            self.pos += 1
            self.expect("(")
            u = self.tick_expr(sc)
            self.expect(",")
            v = self.tick_expr(sc)
            self.expect(",")
            r = self.iexpr(sc)
            self.expect(")")
            return Tirr(u, v, r)
        return TickVar(self.bound(sc, TICK))

    # -- interval expressions and faces --------------------------------------

    def lattice(self, operand, sc, meet, join, min_prec=1):
        left = operand(sc)
        while True:
            prec = _LATTICE_OPS.get(self.toks[self.pos])
            if prec is None or prec < min_prec:
                return left
            self.pos += 1
            right = self.lattice(operand, sc, meet, join, prec + 1)
            left = (meet if prec == 2 else join)(left, right)

    def iexpr(self, sc):
        return self.lattice(self.iatom, sc, IMeet, IJoin)

    def endpoint(self, ends, msg):
        """A number that must be 0 or 1: ends[0] or ends[1]."""
        pos = self.pos
        n = int(self.advance())
        if n in (0, 1):
            return ends[n]
        self.error(pos, ParseError(msg))
        return ends[0]

    def iatom(self, sc):
        tok = self.toks[self.pos]
        if tok == "~":
            self.pos += 1
            return INeg(self.iatom(sc))
        if self.kind[tok] == "num":
            return self.endpoint((IZERO, IONE), _MISPLACED[IVAL])
        if tok == "(":
            self.pos += 1
            t = self.iexpr(sc)
            self.expect(")")
            return t
        return IVar(self.bound(sc, IVAL))

    def face(self, sc):
        return self.lattice(self.face_atom, sc, FAnd, FOr)

    def face_atom(self, sc):
        if self.kind[self.toks[self.pos]] == "num":
            return self.endpoint((FBOT, FTOP), "expected a face formula")
        self.expect("(")
        if self.kind[self.toks[self.pos]] == "ident" \
                and self.toks[self.pos + 1] == "=":
            pos = self.pos
            name = self.name()
            end = self.face_end()
            return FEq(self.bound(sc, IVAL, pos, name), end)
        t = self.face(sc)
        self.expect(")")
        return t

    def face_end(self):
        """The rest of `(name = 0)` or `(name = 1)` after the name."""
        self.expect("=")
        end = int(self.expect_kind("num"))
        if end not in (0, 1):
            self.fail("a face equation ends in 0 or 1")
        self.expect(")")
        return end

    def bracket_parts(self, sc, sci, mode=TERM, bare=None):
        """`[phi -> t, ...]`, faces read in sc and terms in sci: (face,
        term or None, the token after the face) for each entry.  An entry
        without a term has the error `bare`, if given, in place of its
        face's errors."""
        self.expect("[")
        parts = []
        if self.at("]"):
            self.pos += 1
            return parts
        while True:
            start, saved = self.pos, self.err
            phi = self.face(sc)
            mid = self.pos
            if self.at("->"):
                self.pos += 1
                parts.append((phi, self.term(sci, mode), mid))
            else:
                if bare is not None:
                    self.err = saved
                    self.error(start, ParseError(bare))
                parts.append((phi, None, mid))
            if self.at(","):
                self.pos += 1
                continue
            self.expect("]")
            return parts

    # -- atoms ---------------------------------------------------------------

    def atom(self, sc, mode=TERM):
        start = self.pos
        value = self.toks[start]
        kind = self.kind[value]
        if value in self.names or value == "I":
            self.pos += 1
            m = value[0] == "U" and _UNIVERSE.match(value)
            if m:
                return self.misplaced(start, mode) if mode is IVAL \
                    or mode is _BOUNDARY else U(int(m[1]))
            if mode is IVAL:
                return IVar(self.bound(sc, IVAL, start, value))
            if mode is not _BOUNDARY:
                return self.name_term(sc, start, value)
            if value in self.bnd.recs:
                return self.rec_call(value, ())
            if value in self.arities:
                return self.bnd_con(sc, start, value, ())
            self.unknown = True
            return self.misplaced(start, mode)
        if value == "(":
            self.pos += 1
            if self.toks[self.pos] in self.names \
                    and self.toks[self.pos + 1] == ".":
                nm = self.advance()
                self.pos += 1
                self.term(sc.push(nm, CLOCK))
                self.expect(")")
                return self.misplaced(
                    start, mode, "a clock binder must be forced with"
                    " '[clock, tick]'")
            saved = self.err
            t = self.term(sc, mode)
            if self.at("="):
                if self._bare(start + 1, self.pos) is None:
                    self.fail("a face equation applies to a variable")
                self.face_end()
                self.err = saved
                return self.misplaced(start, mode, _IV_IN_TERM)
            self.expect(")")
            return t
        if mode is IVAL and (kind == "num" or value == "~"):
            if kind == "num":
                return self.endpoint((IZERO, IONE), _MISPLACED[IVAL])
            self.pos += 1
            return INeg(self.atom(sc, IVAL))
        if mode is IVAL or mode is _BOUNDARY and value != "hcomp":
            self.misplaced(start, mode)
            self.atom(sc)
            return _PLACEHOLDER[mode]
        if kind == "num" or value == "~":
            self.pos += 1
            if value == "~":
                self.atom(sc)
            return self.misplaced(start, TERM, _IV_IN_TERM)
        if value == "Path":
            self.pos += 1
            return PathT(self.atom(sc), self.atom(sc), self.atom(sc))
        if value == "tirr":
            self.tick_expr(sc)
            return self.misplaced(start, TERM,
                                  "tick expression used in term position")
        if value in ("dfix", "pfix"):
            self.pos += 1
            k = self.bound(sc, CLOCK)
            return (DFix if value == "dfix" else PFix)(k, self.atom(sc))
        if value in ("comp", "hcomp"):
            self.pos += 1
            self.expect("^")
            sci = sc.push(self.name(), IVAL)
            bnd = mode is _BOUNDARY
            ty = _PLACEHOLDER[TERM]
            if not self.at("["):
                if bnd:
                    self.error(start, ParseError(
                        "a boundary hcomp carries no type annotation"))
                ty = self.atom(sci if value == "comp" else sc)
            elif not bnd:
                self.error(start, ParseError(
                    f"{value} needs a type annotation"))
            saved = self.err
            parts = self.bracket_parts(
                sc, sci, mode, None if bnd else "a tube component needs"
                " '-> term'")
            base = self.atom(sc, mode)
            if not bnd:
                cls = Comp if value == "comp" else HComp
                parts = [(phi, t) for phi, t, _ in parts if t is not None]
                return cls(ty, face_join(phi for phi, _ in parts), System(
                    tuple((weaken_iv(phi, [IVAL]), t) for phi, t in parts)),
                    base)
            if len(parts) == 1 and parts[0][1] is not None:
                return HComp(Hit(self.data_name, self.bnd.params),
                             parts[0][0], parts[0][1], base)
            self.err = saved
            self.error(start, ParseError(
                "a boundary hcomp has exactly one tube component"))
            return _PLACEHOLDER[_BOUNDARY]
        if value == "trans":
            self.pos += 1
            self.expect("^")
            ty = self.atom(sc.push(self.name(), IVAL))
            phi = FBOT
            if self.at("["):
                self.pos += 1
                phi = self.face(sc)
                self.expect("]")
            return Trans(ty, phi, self.atom(sc))
        if value == "clockelim":
            return self.clockelim(sc)
        if kind == "ident":
            self.fail(f"keyword {value!r} cannot start a term here")
        if value == "[":
            parts = self.bracket_parts(sc, sc)
            if any(t is None for _, t, _ in parts):
                self.fail("a system component needs '-> term'")
            return System(tuple((phi, t) for phi, t, _ in parts))
        if value == "|>":
            self.pos += 1
            self.expect("(")
            nm = self.name()
            self.expect(":")
            k = self.bound(sc, CLOCK)
            self.expect(")")
            return Later(k, self.atom(sc.push(nm, TICK)))
        self.fail("expected a term")

    def clockelim(self, sc):
        start = self.pos
        self.expect("clockelim")
        self.expect("^")
        n = int(self.expect_kind("num"))
        hit = self.name()
        sig = self.sigs.get(hit)
        if sig is None:
            self.error(start, UnboundVariable(f"unbound name {hit!r}",
                                              name=hit))
        saved = self.err
        spine = []
        while not self.at("into"):
            if not self._at_arg_atom():
                self.fail("expected an argument or 'into'")
            spine.append(self.atom(sc))
        if not spine:
            self.fail("clockelim needs a scrutinee")
        if sig is not None and len(spine) - 1 != len(sig.params.types):
            self.err = saved
            self.error(start, ParseError(
                f"{hit} takes {len(sig.params.types)} parameters,"
                f" got {len(spine) - 1}"))
        self.expect("into")
        self.expect("(")
        hvar = self.name()
        self.expect(".")
        motive = self.term(sc.push(hvar, TERM))
        self.expect(")")
        self.expect("with")
        cases = []
        while self.at("|"):
            self.pos += 1
            pos = self.pos
            label = self.name()
            names = []
            while not self.at("=>"):
                names.append(self.name())
            self.expect("=>")
            ctor = None if sig is None else next(
                (c for c in sig.constructors if c.label == label), None)
            a, r, v = (len(names), 0, 0) if ctor is None else (
                len(ctor.args.types), len(ctor.rec_arities), ctor.ivar_count)
            if sig is not None and ctor is None:
                self.error(pos, ParseError(
                    f"{hit} has no constructor {label!r}"))
            elif ctor is not None and len(names) != a + 2 * r + v:
                self.error(pos, ParseError(
                    f"case for {label} binds {a + 2 * r + v} names,"
                    f" got {len(names)}"))
            inner = sc
            for k, nm in enumerate(names):
                inner = inner.push(nm, TERM if k < a + 2 * r else IVAL)
            cases.append(ElimCase(label, a, r, v, self.term(inner)))
        return ClockElim(hit, n, tuple(spine[:-1]), motive, tuple(cases),
                         spine[-1])

    # -- boundaries ----------------------------------------------------------

    def past_recs(self, t):
        """t, read in a boundary's scope, moved past the recursive
        arguments, which that scope leaves out."""
        return weaken(t, [TERM] * len(self.bnd.recs))

    def rec_call(self, name, args, depth=0):
        """Recursive argument `name` in a boundary, under `depth` term
        binders, applied to the terms `args`."""
        j, arity = self.bnd.recs[name]
        if len(args) != arity:
            # A typing error: kept past the last token, so that it stands
            # for the declaration only when nothing else is wrong there.
            self.error(len(self.toks), ArityMismatch(
                f"recursive call {j} in {self.bnd.label} expects {arity}"
                " arguments"))
        t = Var(len(self.bnd.recs) - 1 - j + depth)
        for u in args:
            t = App(t, u)
        return t

    def bnd_con(self, sc, pos, label, args):
        """Constructor `label` in a boundary, applied to the argument atoms
        starting at the tokens `args`."""
        a, r, v, rec_lens = self.arities[label]
        if len(args) != a + r + v:
            self.error(pos, ParseError(
                f"boundary constructor {label} expects {a + r + v}"
                f" arguments, got {len(args)}"))
            self.atoms(sc, args)
            return _PLACEHOLDER[_BOUNDARY]
        recs = []
        for k, q in enumerate(args[a:a + r]):
            m = rec_lens[k]
            self.pos = q
            if m == 0:
                recs.append(self.atom(sc, _BOUNDARY))
                continue
            end = self._arg_end(q)
            name = self._bare(q, end)
            if name in self.bnd.recs:
                # A function-valued slot: the recursive argument, applied
                # to the slot's own binders.
                t = self.rec_call(name, [Var(m - 1 - i) for i in range(m)], m)
                for _ in range(m):
                    t = Lam(t)
                recs.append(t)
                self.pos = end
            else:
                self.error(q, ParseError(
                    f"argument {k} of {label} in a boundary must be a"
                    " recursive argument name"))
                self.atom(sc)
        return Con(self.data_name, label, self.bnd.params,
                   tuple(map(self.past_recs, self.atoms(sc, args[:a]))),
                   tuple(recs), tuple(self.atoms(sc, args[a + r:], IVAL)))

    def boundary(self, sc, label):
        """A constructor's boundary `[phi -> M, ..., psi]`, read in sc: its
        pieces, and its face, which the bare entry, if any, extends."""
        arrows, faces, bare = [], [], None
        for phi, t, mid in self.bracket_parts(sc, sc, _BOUNDARY):
            if t is None:
                if bare is not None:
                    self.error(mid, ParseError(
                        f"{label}: at most one bare face entry"))
                bare = phi
            else:
                if bare is not None:
                    self.error(mid, ParseError(
                        f"{label}: bare face entries must come last"))
                arrows.append((phi, t))
                faces.append(phi)
        if bare is not None:
            faces.append(bare)
        return tuple(arrows), face_join(faces)

    # -- declarations --------------------------------------------------------

    def module(self):
        decls = []
        expect = None
        while True:
            at = self.pos
            tok = self.toks[at]
            if tok in ("--expect-pass", "--expect-fail"):
                self.pos += 1
                if expect is not None:
                    self.fail("duplicate expectation pragma")
                expect = ("pass",)
                if tok == "--expect-fail":
                    self.expect("(")
                    expect = ("fail", self.expect_kind("ident"))
                    self.expect(")")
                    if expect[1] not in ERROR_CLASSES:
                        line, col = position(self.text, at)
                        raise ParseError(f"{line}:{col}: unknown error"
                                         f" class {expect[1]!r}")
            elif tok in ("def", "data") or self.kind[tok] == "pragma":
                conv = self.kind[tok] == "pragma"
                decls.append(self.decl(None if conv else expect))
                if not conv:
                    expect = None
            elif tok == "":
                break
            else:
                self.fail("expected a declaration")
        if expect is not None:
            raise ParseError("expectation pragma not attached to a declaration")
        return tuple(decls)

    def decl(self, expect):
        """The declaration here (a `def`, a `data` or a conversion pragma):
        its name, expect, and its kernel form, or the earliest error in it
        other than a syntax error."""
        self.err = None
        at = self.pos
        kw = self.advance()
        if kw == "data":
            name, d = self.data_decl(at, expect)
        elif kw == "def":
            name = self.fresh_name(at)
            doms, sc = self.binder_groups(_BASE_SCOPE)
            self.expect(":")
            ty = self.term(sc)
            self.expect(":=")
            body = self.term(sc)
            for dom in reversed(doms):
                ty, body = Pi(dom, ty), Lam(body)
            if self.err is None:
                self.defs.add(name)
            d = Definition(name, ty, body, expect)
        else:
            self.conv_count += 1
            name = f"conv{self.conv_count}"
            lhs = self.term(_BASE_SCOPE)
            self.expect("=")
            rhs = self.term(_BASE_SCOPE)
            self.expect(":")
            d = ConvCheck(name, self.term(_BASE_SCOPE), lhs, rhs,
                          kw == "--expect-conv")
        return name, expect, d if self.err is None else self.err[1]

    def fresh_name(self, kw, taken=()):
        """A name not declared before; kw is the index of its declaration's
        keyword."""
        pos = self.pos
        name = self.name()
        if name in self.defs or name in self.sigs or name in self.labels \
                or name in taken:
            self.error(pos, ParseError(
                f"line {position(self.text, kw)[0]}: {name!r} is already"
                " declared"))
        return name

    def data_decl(self, kw, expect):
        name = self.fresh_name(kw)
        ptypes, sc = self.binder_groups(_BASE_SCOPE)
        level = 0
        if self.at(":"):
            self.pos += 1
            m = _UNIVERSE.match(self.expect_kind("ident"))
            if not m:
                self.fail("expected a universe after ':'")
            level = int(m[1])
        self.expect("where")
        self.data_name = name
        self.arities = {}
        ctors = []
        while self.at("|"):
            self.pos += 1
            label = self.fresh_name(kw, self.arities)
            ctors.append(self.ctor(sc, label))
        # A boundary that named a head unknown when it was read is read
        # again, now that every constructor's shape is known.
        end = self.pos
        for c in ctors:
            if c[-1] is not None:
                bsc, self.bnd, self.pos = c[-1]
                c[4:6] = self.boundary(bsc, c[0])
        self.pos = end
        self.data_name = None
        sig = HitSignature(name, Telescope(tuple(ptypes)), level, tuple(
            Constructor(label, Telescope(tuple(atypes)), tuple(recs), v,
                        face, arrows)
            for label, atypes, recs, v, arrows, face, _ in ctors))
        for c in ctors:
            (self.labels if self.err is None else self.dropped)[c[0]] = name
        if self.err is None:
            self.sigs[name] = sig
        return name, DataDefinition(sig, expect)

    def ctor(self, sc, label):
        """The rest of a constructor after its label: [label, argument
        types, recursive arities, interval count, boundary pieces, face,
        and what it takes to read the boundary again (or None)]."""
        atypes, recs, recnames, ivnames = [], [], [], []
        phase = 0
        while self._at_binder_group():
            close = self.close[self.pos]
            self.pos += 1
            at = self.pos
            names = self.names1()
            self.expect(":")
            lo = self.pos
            if close is not None and self._bare(lo, close) == "I":
                phase = 2
                ivnames += names
                self.pos = close
            else:
                for k, nm in enumerate(names):
                    self.pos = lo
                    ty = t = self.term(sc, _REC_TYPE)
                    doms = []
                    while type(t) is Pi:
                        doms.append(t.dom)
                        t = t.cod
                    rec = t is _RECURSIVE
                    if phase > rec:
                        self.error(at + k, ParseError(
                            f"{label}: recursive argument {nm!r} after an"
                            " interval binder" if rec else
                            f"{label}: ordinary argument {nm!r} after a"
                            " recursive or interval binder"))
                    if rec:
                        phase = 1
                        recs.append(Telescope(tuple(doms)))
                        recnames.append(nm)
                    else:
                        atypes.append(ty)
                        sc = sc.push(nm, TERM)
            self.expect(")")
        self.arities[label] = (len(atypes), len(recs), len(ivnames),
                               tuple(len(tele.types) for tele in recs))
        terms = sc.sorts.count(TERM)  # the parameters and the arguments
        r = len(recs)
        self.bnd = _Boundary(
            label, {nm: (j, len(recs[j].types))
                    for j, nm in enumerate(recnames)},
            tuple(Var(r + terms - 1 - p)
                  for p in range(terms - len(atypes))))
        for nm in ivnames:
            sc = sc.push(nm, IVAL)
        if not self.at("["):
            return [label, atypes, recs, len(ivnames), (), FBOT, None]
        at, saved = self.pos, self.err
        self.unknown = False
        arrows, face = self.boundary(sc, label)
        again = None
        if self.unknown:
            self.err = saved
            again = (sc, self.bnd, at)
        return [label, atypes, recs, len(ivnames), arrows, face, again]


def surface_module(text):
    """The module's declarations, each as (name, expectation, kernel form or
    the earliest error in it); a syntax error raises `ParseError`.  (The
    name is from when this returned a surface tree; the benchmark traces
    it, `tokenize` and `Elaborator.decl` by name.)"""
    return Elaborator(text).module()


def parse_module(text):
    """The module, or the first error in its declarations."""
    decls = []
    for _, _, d in surface_module(text):
        if isinstance(d, CcttError):
            raise d
        decls.append(d)
    return Module(tuple(decls))


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
    # Boundary pieces see the recursive arguments past the arguments.
    benv = env
    for nm in recnames:
        benv = pr.push(benv, TERM, nm)
    for _ in range(ctor.ivar_count):
        nm = pr.fresh("i")
        parts.append(f"({nm} : I)")
        env = pr.push(env, IVAL, nm)
        benv = pr.push(benv, IVAL, nm)
    entries = []
    for phi, b in ctor.boundary:
        entries.append(f"{pr.iv(env, phi)} ->"
                       f" {_print_bnd(pr, benv, recnames, sig, b)}")
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
    """A boundary piece: a constructor of sig without its parameters, a
    function-valued recursive slot by the recursive argument's name; an
    hcomp at sig without its type; or a recursive argument applied."""
    match b:
        case Con(_, label, _, args, recs, ivals):
            target = sig.constructor(label)
            parts = [label]
            parts += [pr.atom(env, x) for x in args]
            for k, x in enumerate(recs):
                m = len(target.rec_arities[k].types)
                if m == 0:
                    parts.append(_print_bnd(pr, env, recnames, sig, x,
                                            atom=True))
                    continue
                # Only the eta-expanded recursive argument has a spelling.
                for _ in range(m):
                    x = x.body if isinstance(x, Lam) else None
                for q in range(m):
                    x = x.fn if isinstance(x, App) \
                        and x.arg == Var(q) else None
                if not isinstance(x, Var) or x.ix < m \
                        or pr.lookup(env, TERM, x.ix - m) not in recnames:
                    raise ValueError("boundary term has no surface syntax")
                parts.append(pr.lookup(env, TERM, x.ix - m))
            parts += [pr.iv(env, x) for x in ivals]
        case HComp(_, face, tube, base):
            nm = pr.fresh("i")
            env2 = pr.push(env, IVAL, nm)
            parts = [
                f"hcomp^{nm} [{pr.iv(env, face)} ->"
                f" {_print_bnd(pr, env2, recnames, sig, tube)}]",
                _print_bnd(pr, env, recnames, sig, base, atom=True),
            ]
        case _:
            return (pr.atom if atom else pr.term)(env, b)
    s = " ".join(parts)
    if atom and len(parts) > 1:
        return f"({s})"
    return s
