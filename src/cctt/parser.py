"""Surface syntax: tokenizer, parser to kernel syntax, and printer.

`tokenize` is one `findall` of one regular expression whose every match
is a token and the text skipped after it, so a token is its string, its
kind follows from its first character (`token_kind`, once per distinct
token), and only a message counts lines, by scanning the text up to its
token (`position`).  The parser, `Elaborator`, reads a term in one loop
with a stack of frames, so nesting costs no Python frame.  Binary
operators are left associative, from the loosest: `\\/` < `/\\` < `@` <
application; interval expressions and faces, read by a loop of their
own, have the two lattice operators only.

The surface language uses named variables.  The parser reads a module in
one pass straight to the sort-indexed de Bruijn representation of
`syntax`: each construct resolves the names it reads in the scope it is
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
from functools import partial
from itertools import compress, count, islice
from operator import itemgetter

from .errors import (
    ERROR_CLASSES, ArityMismatch, CcttError, FaceTooLarge, ParseError,
    UnboundVariable,
)
from .interval import (
    FBOT, FEq, FOr, FTOP, Face, IJoin, IMeet, INeg, IONE, IVar, IZERO,
    face_join, iv_rename, iv_show, join, meet,
)
from .syntax import (
    App, CApp, CLam, ClockElim, Comp, Con, Constructor, DFix, Diamond,
    ElimCase, ForceApp, Forall, HComp, Hit, HitSignature, Lam, Later, PApp,
    PFix, PLam, PathT, Pi, System, Telescope, TickApp, TickLam, TickVar,
    Tirr, TopRef, Trans, U, Var,
    C1, CLOCK, I1, IVAL, K0, TERM, TICK, record, weaken, weaken_iv,
)

RESERVED = {
    "Path", "forall", "tick", "tirr", "dfix", "pfix", "comp", "hcomp",
    "trans", "data", "where", "def", "clockelim", "into", "with", "I",
}

_UNIVERSE = re.compile(r"U([0-9]+)$")

# Whitespace, newlines and comments: `--` not starting a pragma.  The
# quantifiers are possessive, since no match of the skip is ever undone.
_SKIP_RE = re.compile(
    r"\s*+(?:--(?!expect-(?:not-conv|pass|fail|conv))[^\n]*+\s*+)*+")
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


class Tokens(list):
    """The token strings of a text, ending in "" for the end of input, and
    `kind`: the `token_kind` of each distinct token."""

    __slots__ = ("kind",)


def tokenize(text):
    """The `Tokens` of text."""
    toks = Tokens(_TOKEN_RE.findall(text, _SKIP_RE.match(text).end()))
    # Most tokens are identifiers, which `_FIRST` alone tells apart.
    distinct = set(toks)
    kind = toks.kind = dict(zip(distinct, map(_FIRST.get,
                                              map(itemgetter(0), distinct))))
    for tok in [tok for tok, k in kind.items() if k != "ident"]:
        kind[tok] = token_kind(tok)
    if None in kind.values():
        i = min(toks.index(tok) for tok, k in kind.items() if k is None)
        line, col = position(text, i)
        raise ParseError(f"{line}:{col}: unexpected character {toks[i]!r}")
    toks.append("")
    kind[""] = "eof"
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


K0_NAME = "k0"

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
# The innermost term variables, shared by every place that names them.
_VARS = tuple(map(Var, range(16)))
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
_PARENS = frozenset("()")
# The tokens other than names and numbers that continue an application.
_APP_GOES_ON = frozenset(("{", "[", "(", "~"))

# Binder forms `\x y. t`, `/\k. t`, `<i j> t` and `forall k. A`, by their
# first token: the term built for each name, its sort, and the token after
# the names.
_BINDERS = {"\\": (Lam, TERM, "."), "/\\": (CLam, CLOCK, "."),
            "<": (PLam, IVAL, ">"), "forall": (Forall, CLOCK, ".")}

# What `Elaborator.read` reads next (a term, an operand of a binary
# operator, or an atom; or nothing, as it has a value), the kinds of its
# frames, and how an `_F_ARGS` frame builds its value.
_S_TERM, _S_APP, _S_ATOM, _S_VALUE = range(4)
(_F_APP, _F_ARGS, _F_PAREN, _F_BIN, _F_WRAP, _F_GROUP, _F_FORCED, _F_PATH,
 _F_DISCARD) = range(9)
_SPINE, _REC, _REC_CALL, _BND_CON, _BND_BAD = range(5)
# The value of an atom not read yet; `~` and '(' on `Elaborator.interval`'s
# stack.
_NOTHING, _NOT, _OPEN = object(), object(), object()


@record
class _Boundary:
    """What a constructor's boundary is read with: the constructor's label,
    its recursive arguments by name (each its position and arity), and the
    data type's parameters as boundary terms see them, past the
    constructor's arguments and recursive arguments."""
    label: str
    recs: dict
    params: tuple


class Elaborator:
    """The tokens of `tokenize`, ending in "", read straight to kernel
    syntax: `read` reads a term or an atom in one loop, and the
    declarations and the atoms with parts of several kinds (`compound`)
    call it for their parts.  Where a spine's reading depends on what
    follows its head, the parser looks ahead, skipping an argument atom in
    O(1) by the table `close` of matching parentheses.  Names resolve
    against the scope, a pair (names, sorts) of tuples, innermost first,
    and the definitions and data types declared before.  A syntax error
    raises `ParseError` for the whole module; any other error is kept,
    with its token, while the parse goes on, and the declaration stands
    for the earliest such error in it.
    """

    def __init__(self, text):
        self.text = text
        tokens = tokenize(text)
        # A plain list, which CPython indexes faster than a subclass.
        self.toks = toks = list(tokens)
        self.kind = tokens.kind
        self.names = {tok for tok, k in tokens.kind.items()
                      if k == "ident"} - RESERVED
        self.universes = {tok: U(int(tok[1:])) for tok in self.names
                          if tok[0] == "U" and tok[1:].isdigit()}
        # The tokens that start an argument atom; and with those, the ones
        # that continue an application, and a term, past an atom.
        self.starts = self.names | {"(", "~"} | {
            tok for tok, k in tokens.kind.items() if k == "num"}
        self.more = self.starts | _APP_GOES_ON
        self.goes_on = self.starts | _CONTINUES
        self.close = [None] * len(toks)  # '(' -> its ')', if it has one
        opened = []
        for i in compress(count(), map(_PARENS.__contains__, toks)):
            if toks[i] == "(":
                opened.append(i)
            elif opened:
                self.close[opened.pop()] = i
        self.pos = 0
        self.defs = set()
        self.sigs = {}
        self.labels = {}  # label -> signature name
        self.dropped = {}  # label -> name of a data type that failed
        self.conv_count = 0
        self.err = None  # the declaration's earliest: (token index, error)
        # While a data type is read: its name; the boundary's `_Boundary`,
        # the constructors' shapes, and whether a head was not among them.
        self.data_name = self.bnd = None
        # The data types and constructors with no interval arguments; and
        # the shape of each: its data type's name, the number of
        # parameters, and a constructor's numbers of arguments, recursive
        # arguments and interval arguments.
        self.plain = set()
        self.shapes = {}
        # A name's term where it stands alone and in no scope, once read.
        self.leaves = {}
        self.arities = {}
        self.unknown = False

    # -- the cursor ----------------------------------------------------------

    def at(self, value):
        return self.toks[self.pos] == value

    def expect(self, value, pos=None):
        """Step past value at the cursor, or at token pos."""
        pos = self.pos if pos is None else pos
        if self.toks[pos] != value:
            self.fail(f"expected {value!r}", pos)
        self.pos = pos + 1

    def expect_kind(self, kind):
        tok = self.toks[self.pos]
        if self.kind[tok] != kind:
            self.fail(f"expected {kind!r}")
        self.pos += 1
        return tok

    def fail(self, msg, pos=None):
        """Raise the syntax error msg at the cursor, or at token pos."""
        self.pos = self.pos if pos is None else pos
        line, col = position(self.text, self.pos)
        got = self.toks[self.pos] or "end of input"
        raise ParseError(f"{line}:{col}: {msg}, found {got!r}")

    def error(self, pos, err):
        """Keep err, found at token pos, unless one before it is kept."""
        if self.err is None or pos < self.err[0]:
            self.err = (pos, err)

    def lattice(self, pos, op, *args):
        """op(*args), or 0 for a FaceTooLarge, kept as the error at pos."""
        try:
            return op(*args)
        except FaceTooLarge as err:
            self.error(pos, err)
            return FBOT if op is face_join else type(args[0])()

    def misplaced(self, pos, mode, msg=None):
        """Keep the error for a construct at pos that mode cannot hold (msg
        in term position); what to read it as instead."""
        self.error(pos, ParseError(_MISPLACED.get(mode, msg)))
        return _PLACEHOLDER[mode]

    def name(self, pos=None):
        """The name at the cursor, stepped past, or at token pos."""
        if pos is None:
            pos = self.pos
            self.pos += 1
        if self.toks[pos] not in self.names:
            self.fail("expected a name", pos)
        return self.toks[pos]

    def bound(self, sc, sort, pos=None, name=None):
        """The index of a name of the given sort in scope, read here unless
        given."""
        if name is None:
            pos, name = self.pos, self.name()
        if name in sc[0] and sc[1][sc[0].index(name)] == sort:
            return sc[1][:sc[0].index(name)].count(sort)
        if name == K0_NAME and sort == CLOCK and name not in sc[0]:
            return K0
        self.error(pos, ParseError(
            f"{name!r} is not {_ARTICLE[sort]} variable in scope"))
        return 0

    # -- lookahead -----------------------------------------------------------

    def _arg_end(self, i):
        """The index past the argument atom at token i; None if none starts
        there, or if its end is not known ahead (`~` before a keyword)."""
        toks = self.toks
        while toks[i] == "~":
            if toks[i + 1] == "I":
                return i + 2
            i += 1
        if toks[i] in self.names or self.kind[toks[i]] == "num":
            return i + 1
        if toks[i] == "(" and self.close[i] is not None:
            return self.close[i] + 1
        return None

    def _bare(self, lo, hi):
        """The name that tokens lo..hi-1 are, in parentheses or not; None
        when they are something else."""
        toks, close = self.toks, self.close
        while hi - lo > 2 and toks[lo] == "(" and close[lo] == hi - 1:
            lo += 1
            hi -= 1
        tok = toks[lo]
        if hi - lo == 1 and (tok in self.names or tok == "I") \
                and tok not in self.universes:
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

    def group(self, pos):
        """The names of the binder group `(x y : A)` at token pos, or
        None."""
        toks, j = self.toks, pos + 1
        while toks[pos] == "(" and toks[j] in self.names:
            j += 1
        return toks[pos + 1:j] if j > pos + 1 and toks[j] == ":" else None

    # -- spines --------------------------------------------------------------

    def spine(self, sc, mode, saved):
        """The `_F_ARGS` frame for the application at the cursor when its
        head is read with all its arguments, also those inside parentheses
        around it, as in `(c a) b`: a data type or constructor in a term; a
        recursive argument or constructor as a whole boundary term; the
        data type declared ending a constructor binder's type (saved: the
        error to restore past it).  None for any other application."""
        toks, close, starts = self.toks, self.close, self.starts
        start = i = self.pos
        opened = []
        if toks[i] == "(":
            if close[i] is None or self._arg_end(close[i] + 1) is None:
                return None  # parentheses with nothing after them
            while toks[i] == "(" and close[i] is not None:
                opened.append(close[i])
                i += 1
        name = toks[i]
        if name not in self.names or name in self.universes or (
                    name not in self.labels and name not in self.sigs
                    or name in sc[0] if mode is TERM else
                    name != self.data_name if mode is _REC_TYPE else
                    name not in self.bnd.recs and name not in self.arities):
            return None
        args, j = [], i + 1
        while True:
            while toks[j] in starts:
                end = j + 1 if toks[j] not in ("(", "~") else self._arg_end(j)
                if end is None:
                    break
                args.append(j)
                j = end
            if not opened:
                break
            if opened.pop() != j:
                return None
            j += 1
        if mode is TERM:
            info = self.applied(start, name, len(args))
            cut = info[2][2] if info[2] else len(args)
            return [_F_ARGS, _SPINE, args, (TERM,) * cut + (IVAL,) * (
                len(args) - cut) if cut < len(args) else None, [], sc, j,
                    info]
        if toks[j] in _CONTINUES:
            return None
        if mode is _BOUNDARY and name not in self.bnd.recs:
            return self.bnd_con(sc, start, name, args, j)
        # The data type applied, whose arguments are read but not
        # elaborated; or a recursive argument applied.
        rec = mode is _REC_TYPE
        return [_F_ARGS, _REC if rec else _REC_CALL, args, None, [], sc, j,
                saved if rec else name]

    def applied(self, pos, name, n):
        """For the data type or constructor `name` at token pos applied to
        n argument atoms: its name, its data type's, and where its
        arguments split into parameters, arguments, recursive arguments and
        interval arguments (None when they do not)."""
        data, params, a, r, v = self.shapes[name]
        if v is None:
            if n != params:
                self.error(pos, ParseError(
                    f"{name} takes {params} parameters, got {n}"))
            return name, data, None
        # A constructor's parameters may be left out.  With any other
        # count, the checker reports the arity error.
        p = n - a - r - v
        return name, data, (p, p + a, p + a + r) if p in (0, params) else None

    def bnd_con(self, sc, pos, label, args, end):
        """The `_F_ARGS` frame for constructor `label` in a boundary applied
        to the argument atoms at the tokens `args`, up to end: its
        recursive arguments first, then the others, then the intervals."""
        a, r, v, modes = self.arities[label]
        if len(args) == a + r + v:
            return [_F_ARGS, _BND_CON, args[a:a + r] + args[:a] + args[a + r:],
                    modes, [], sc, end, (label, a, r)]
        self.error(pos, ParseError(
            f"boundary constructor {label} expects {a + r + v}"
            f" arguments, got {len(args)}"))
        return [_F_ARGS, _BND_BAD, args, None, [], sc, end, None]

    def slot(self, q, mode):
        """For recursive slot k, of arity m > 0, of boundary constructor
        label at token q, where mode is (k, m, label): the recursive
        argument it names, applied to the slot's own binders; None, the
        error kept, for any other."""
        k, m, label = mode
        name = self._bare(q, self._arg_end(q))
        if name not in self.bnd.recs:
            return self.error(q, ParseError(
                f"argument {k} of {label} in a boundary must be a"
                " recursive argument name"))
        t = self.rec_call(name, [Var(m - 1 - i) for i in range(m)], m)
        for _ in range(m):
            t = Lam(t)
        return t

    def built(self, how, vals, info):
        """What an `_F_ARGS` frame builds, by how, from the atoms it read
        and its info."""
        if how == _SPINE:
            name, data, cuts = info
            if name in self.sigs:
                return Hit(name, tuple(vals))
            p, pa, par = cuts or (0, len(vals), len(vals))
            return Con(data, name, tuple(vals[:p]), tuple(vals[p:pa]),
                       tuple(vals[pa:par]), tuple(vals[par:]))
        if how == _REC:
            self.err = info
            return _RECURSIVE
        if how == _REC_CALL:
            return self.rec_call(info, [self.past_recs(u) for u in vals])
        if how == _BND_BAD:
            return _PLACEHOLDER[_BOUNDARY]
        label, a, r = info
        recs = vals[:r]
        if None in recs:  # a slot that named no recursive argument
            recs = [u for u in recs if u is not None]
        return Con(self.data_name, label, self.bnd.params,
                   tuple(map(self.past_recs, vals[r:r + a])), tuple(recs),
                   tuple(vals[r + a:]))

    # -- terms ---------------------------------------------------------------

    def read(self, sc, state=_S_TERM, mode=TERM):
        """The term (state `_S_TERM`) or atom (`_S_ATOM`) at the cursor, in
        scope sc as mode, read with a frame on `stack` (a list, or a tuple
        if it never changes, that starts with its kind) for each construct
        open around the token being read.  A construct's first tokens push
        its frame and start its first part, or give its value `t`; a value
        goes to the frame on top, which starts its next part or is popped
        with its own value."""
        toks, names, starts = self.toks, self.names, self.starts
        pos, stack, t = self.pos, [], None
        while True:
            if state == _S_TERM:
                start, value = pos, toks[pos]
                binder = group = None
                if value in names:
                    if toks[pos + 1] not in self.goes_on:
                        if mode is not _REC_TYPE or value != self.data_name:
                            state = _S_ATOM  # a name alone
                        elif value not in self.universes:
                            t, pos, state = _RECURSIVE, pos + 1, _S_VALUE
                elif value == "(":
                    group = self.group(pos)
                else:
                    binder = _BINDERS.get(value)
                if state != _S_TERM:
                    pass
                elif binder is not None:  # `\x y. t` and the like
                    make, sort, closer = binder
                    pos += 1
                    if toks[pos] not in names:
                        self.fail("expected a name", pos)
                    while toks[pos] in names:
                        sc = (toks[pos],) + sc[0], (sort,) + sc[1]
                        pos += 1
                    if toks[pos] != closer:
                        self.fail(f"expected {closer!r}", pos)
                    stack.append((_F_WRAP, (make,) * (pos - start - 1), start,
                                  mode, _NOTHING))
                    pos += 1
                elif value == "tick":
                    nm = self.name(pos + 1)
                    self.expect(":", pos + 2)
                    k = self.bound(sc, CLOCK, pos + 3, self.name(pos + 3))
                    self.expect(".", pos + 4)
                    stack.append((_F_WRAP, (partial(TickLam, k),), start,
                                  mode, _NOTHING))
                    sc, pos = ((nm,) + sc[0], (TICK,) + sc[1]), pos + 5
                elif group is not None:
                    # `(x y : A) (z : B) -> C`: each name's type, read in
                    # the scope of the names before it.
                    pos += len(group) + 2
                    stack.append([_F_GROUP, [], group, 0, pos, sc, start,
                                  mode])
                else:
                    stack.append([_F_APP, start, self.err, mode, False, None,
                                  sc, mode, 1])
                    state = _S_APP
                if state == _S_TERM:
                    mode = TERM
                    continue
            if state == _S_APP:
                # The application's frame is on top: its head comes first.
                start, tok, saved = pos, toks[pos], self.err
                self.pos, end, app = pos, self.close[pos], stack[-1]
                frame = None
                if tok in names:
                    # A spine read whole (`spine`), a data type or
                    # constructor with no interval arguments taking its
                    # atoms as they come, or an atom.
                    if mode is IVAL or toks[pos + 1] not in self.more and (
                            mode is not _REC_TYPE or tok != self.data_name):
                        pass
                    elif mode is _BOUNDARY or mode is _REC_TYPE \
                            and tok == self.data_name:
                        # Found, it is the whole operand: it ends before
                        # any token that continues a term.
                        frame = self.spine(sc, mode, saved)
                        if frame is not None:
                            stack.pop()
                    elif tok not in sc[0] and tok in self.plain:
                        app[5], pos, frame = [tok], pos + 1, _NOTHING
                    elif tok not in sc[0] and (tok in self.labels
                                                or tok in self.sigs):
                        frame = self.spine(sc, TERM, saved)
                    if mode is _REC_TYPE:
                        app[7] = TERM
                    state = _S_ATOM
                elif mode is _REC_TYPE:
                    frame = self.spine(sc, mode, saved)
                    if frame is None and end is not None \
                            and self._arg_end(end + 1) is None \
                            and toks[end + 1] not in _CONTINUES:
                        state = _S_ATOM  # a type in parentheses
                    else:
                        mode = app[7] = TERM
                if state == _S_APP and frame is None:
                    j = self._clock_binder(pos) if tok == "(" and (
                        toks[pos + 1] == "(" or toks[pos + 1] in names
                        and toks[pos + 2] == ".") else None
                    app[4] = j is not None
                    if app[4] and end is not None and toks[end + 1] == "[" \
                            and toks[end + 2] in names \
                            and toks[end + 3] == ",":
                        # `(k. t) [clock, tick]`: t is read under the binder.
                        stack.append((_F_FORCED, end))
                        sc = (toks[j + 1],) + sc[0], (CLOCK,) + sc[1]
                        pos, mode, state = j + 3, TERM, _S_TERM
                        continue
                    # Parentheses around a spine's head, as in `(c a) b`.
                    if tok == "(" and mode is not IVAL:
                        frame = self.spine(sc, mode, saved)
                    state = _S_ATOM
                if frame is not None:
                    if frame is not _NOTHING:
                        stack.append(frame)
                    t, state = _NOTHING, _S_VALUE
            if state == _S_ATOM:
                start, value = pos, toks[pos]
                pos += 1
                if value in names or value == "I":
                    universe = self.universes.get(value)
                    if universe is not None:
                        t = self.misplaced(start, mode) if mode is IVAL \
                            or mode is _BOUNDARY else universe
                    elif mode is IVAL:
                        t = IVar(self.bound(sc, IVAL, start, value))
                    elif mode is _BOUNDARY:
                        if value in self.bnd.recs:
                            t = self.rec_call(value, ())
                        elif value in self.arities:
                            stack.append(self.bnd_con(sc, start, value, (),
                                                      pos))
                            t = _NOTHING
                        else:
                            self.unknown = True
                            t = self.misplaced(start, mode)
                    elif value in sc[0]:
                        i = sc[0].index(value)
                        if sc[1][i] != TERM:
                            self.error(start, ParseError(
                                f"{value!r} is a {sc[1][i]} variable, not a"
                                " term"))
                        i = sc[1][:i].count(sc[1][i])
                        t = _VARS[i] if i < len(_VARS) else Var(i)
                    elif value in self.leaves:
                        t = self.leaves[value]
                    elif value in self.defs:
                        t = self.leaves[value] = TopRef(value)
                    elif value in self.sigs or value in self.labels:
                        t = self.built(_SPINE, (), self.applied(start, value,
                                                                0))
                        if self.shapes[value][1] == 0 \
                                or self.shapes[value][4] is not None:
                            self.leaves[value] = t  # read with no error
                    else:
                        # A constructor of a data type that failed names
                        # the data type.
                        self.error(start, UnboundVariable(
                            f"unbound name {value!r}",
                            name=self.dropped.get(value, value)))
                        t = _PLACEHOLDER[TERM]
                elif value == "(":
                    state = _S_TERM
                    if toks[pos] not in names or toks[pos + 1] != ".":
                        stack.append((_F_PAREN, start, self.err, mode, None))
                        continue
                    stack.append((_F_PAREN, start, None, mode,
                                  "a clock binder must be forced with"
                                  " '[clock, tick]'"))
                    sc = (toks[pos],) + sc[0], (CLOCK,) + sc[1]
                    pos, mode = pos + 2, TERM
                    continue
                elif mode is IVAL and value == "~":
                    neg = partial(self.lattice, start, INeg)
                    stack.append((_F_WRAP, (neg,), start, TERM, _NOTHING))
                    continue
                elif mode is IVAL and self.kind[value] == "num":
                    self.pos = start
                    t = self.endpoint(False)
                elif mode is IVAL or mode is _BOUNDARY and value != "hcomp":
                    stack.append((_F_DISCARD, self.misplaced(start, mode)))
                    pos, mode = start, TERM
                    continue
                elif self.kind[value] == "num" or value == "~":
                    t = self.misplaced(start, TERM, _IV_IN_TERM)
                    if value == "~":
                        stack.append((_F_DISCARD, t))
                        mode = TERM
                        continue
                elif value in ("Path", "dfix", "pfix", "|>"):
                    if value == "Path":
                        stack.append((_F_PATH, sc, []))
                    elif value != "|>":
                        k = self.bound(sc, CLOCK, pos, self.name(pos))
                        stack.append((_F_WRAP, (partial(
                            DFix if value == "dfix" else PFix, k),), start,
                            TERM, _NOTHING))
                        pos += 1
                    else:
                        self.expect("(", pos)
                        nm = self.name(pos + 1)
                        self.expect(":", pos + 2)
                        k = self.bound(sc, CLOCK, pos + 3, self.name(pos + 3))
                        self.expect(")", pos + 4)
                        stack.append((_F_WRAP, (partial(Later, k),), start,
                                      TERM, _NOTHING))
                        sc, pos = ((nm,) + sc[0], (TICK,) + sc[1]), pos + 5
                    mode = TERM
                    continue
                else:
                    self.pos = start
                    t = self.compound(sc, mode)
                    pos = self.pos
            while stack:
                fr = stack[-1]
                what = fr[0]
                if what == _F_APP:
                    # [_, start, saved, mode, binder, function, sc, the
                    #  application's mode, least precedence]: argument
                    # atoms and suffixes after the head, then operators.
                    nxt = toks[pos]
                    if type(fr[5]) is list:  # a spine
                        if t is not _NOTHING:
                            fr[5].append(t)
                        if nxt in starts and (
                                nxt != "~" or self._arg_end(pos) is not None):
                            sc, mode, state = fr[6], TERM, _S_ATOM
                            break
                        t = self.built(_SPINE, fr[5][1:], self.applied(
                            fr[1], fr[5][0], len(fr[5]) - 1))
                        fr[5] = None
                    if fr[5] is not None:
                        t, fr[4] = App(fr[5], t), False
                    elif fr[7] is not TERM:
                        if nxt not in self.more:
                            nxt = None  # the head alone
                        else:
                            self.err = fr[2]
                            self.misplaced(fr[1], fr[7])
                            t = _PLACEHOLDER[TERM]
                    if nxt is not None:
                        binder = fr[4]
                        while nxt == "{" or nxt == "[":
                            if nxt == "{":
                                k = self.bound(fr[6], CLOCK, pos + 1,
                                               self.name(pos + 1))
                                self.expect("}", pos + 2)
                                t, pos = CApp(t, k), pos + 3
                            else:
                                self.pos = pos
                                t = self.tick_suffix(fr[6], t, binder)
                                pos = self.pos
                            nxt, binder = toks[pos], False
                        if nxt in starts:
                            fr[4], fr[5] = False, t
                            sc, mode, state = fr[6], TERM, _S_ATOM
                            break
                        t = t if fr[7] is TERM else _PLACEHOLDER[fr[7]]
                    if toks[pos] in _TERM_OPS \
                            or fr[8] == 1 and toks[pos] == "->":
                        # [_, start, saved, mode, ok, left, sc, operator,
                        #  least precedence]
                        fr[0], fr[4], fr[5], fr[7] = _F_BIN, True, t, 0
                    else:
                        stack.pop()
                elif what == _F_ARGS:
                    # [_, how, argument tokens, their modes (all TERM if
                    #  None), values, sc, end, info]: an atom for each
                    # argument, then `built`.
                    vals = fr[4]
                    if t is not _NOTHING:
                        vals.append(t)
                    k = len(vals)
                    if k == len(fr[2]):
                        stack.pop()
                        pos, t = fr[6], self.built(fr[1], vals, fr[7])
                        continue
                    pos, sc, state = fr[2][k], fr[5], _S_ATOM
                    mode = TERM if fr[3] is None else fr[3][k]
                    if type(mode) is tuple:  # a function-valued slot
                        t = self.slot(pos, mode)
                        if t is not None:
                            continue
                        stack.append((_F_DISCARD, None))  # left out
                        mode = TERM
                    break
                elif what == _F_PAREN:
                    # (_, start, saved, mode, the error of a clock binder)
                    stack.pop()
                    if toks[pos] == "=" and fr[4] is None:
                        if self._bare(fr[1] + 1, pos) is None:
                            self.fail("a face equation applies to a variable",
                                      pos)
                        self.pos = pos
                        self.face_end()
                        pos, self.err = self.pos, fr[2]
                        t = self.misplaced(fr[1], fr[3], _IV_IN_TERM)
                        continue
                    if toks[pos] != ")":
                        self.fail("expected ')'", pos)
                    pos += 1
                    if fr[4] is not None:
                        t = self.misplaced(fr[1], fr[3], fr[4])
                elif what == _F_BIN:
                    # An `@` is read here, a lattice operator's right
                    # operand and an arrow's codomain by frames of their
                    # own.
                    if fr[7] and fr[4]:
                        t = self.lattice(pos, IMeet if fr[7] == 2 else IJoin,
                                         fr[5], t)
                    while (prec := _TERM_OPS.get(toks[pos])) is not None \
                            and prec >= fr[8]:
                        pos += 1
                        if fr[4] and (fr[3] is _BOUNDARY
                                      or (fr[3] is IVAL) == (prec == 3)):
                            self.err = fr[2]
                            self.misplaced(fr[1], fr[3], _IV_IN_TERM)
                            fr[4] = False
                        if prec != 3:
                            break
                        self.pos = pos
                        right = self.interval(fr[6], False, True)
                        t, pos = PApp(t, right) if fr[4] else t, self.pos
                    else:
                        t = t if fr[4] else _PLACEHOLDER[fr[3]]
                        if fr[8] > 1 or toks[pos] != "->":
                            stack.pop()
                            continue
                        stack[-1] = (_F_WRAP, (partial(Pi, t),), fr[1],
                                     fr[3], fr[2])
                        sc = ("_",) + fr[6][0], (TERM,) + fr[6][1]
                        mode = _REC_TYPE if fr[3] is _REC_TYPE else TERM
                        pos, state = pos + 1, _S_TERM
                        break
                    fr[5], fr[7] = t, prec
                    sc, mode, state = fr[6], fr[3] if fr[4] else TERM, _S_APP
                    stack.append([_F_APP, pos, self.err, mode, False, None,
                                  sc, mode, prec + 1])
                    break
                elif what == _F_WRAP:
                    # (_, makers, start, mode, saved): where mode cannot hold
                    # it, the error, and those since saved (if kept) gone.
                    stack.pop()
                    for make in fr[1]:
                        t = make(t)
                    if fr[3] is IVAL or fr[3] is _BOUNDARY:
                        if fr[4] is not _NOTHING:
                            self.err = fr[4]
                        t = self.misplaced(fr[2], fr[3])
                elif what == _F_GROUP:
                    # [_, domains, names, the next one's index, their type's
                    #  token, scope, start, mode]
                    fr[1].append(t)
                    fr[5] = (fr[2][fr[3]],) + fr[5][0], (TERM,) + fr[5][1]
                    fr[3] += 1
                    sc, mode, state = fr[5], TERM, _S_TERM
                    if fr[3] < len(fr[2]):
                        pos = fr[4]
                        break
                    # Then the next group, or the codomain.
                    self.expect(")", pos)
                    if self.group(pos + 1) is None:
                        self.expect("->", pos + 1)
                        pos += 1
                    stack[-1] = (_F_WRAP, [partial(Pi, d)
                                           for d in reversed(fr[1])],
                                 fr[6], fr[7], _NOTHING)
                    pos += 1
                    mode = _REC_TYPE if fr[7] is _REC_TYPE else TERM
                    break
                elif what == _F_FORCED:
                    # (_, the close past the binder's parentheses)
                    self.expect(")", pos)
                    stack.pop()
                    pos = fr[1] + 1
                elif what == _F_PATH and len(fr[2]) < 2:
                    # (_, sc, the atoms read)
                    fr[2].append(t)
                    sc, mode, state = fr[1], TERM, _S_ATOM
                    break
                else:
                    stack.pop()
                    t = PathT(*fr[2], t) if what == _F_PATH else fr[1]
            else:
                self.pos = pos
                return t

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
            return ForceApp(t if binder else weaken(t, C1), k, u)
        u = self.tick_expr(sc)
        if self.at(","):
            self.fail("expected a clock name before ','", self.pos + 1)
        self.expect("]")
        if binder:
            self.fail("a clock binder must be applied to '[clock, tick]'")
        return TickApp(t, u)

    def tick_expr(self, sc):
        """`<>`, a tick variable, or `tirr(u, v, r)`, read with a stack of
        the ticks read in each `tirr` open around the tick being read."""
        stack = []
        while True:
            if self.at("tirr"):
                self.expect("(", self.pos + 1)
                stack.append([])
                continue
            if self.at("<>"):
                self.pos += 1
                u = Diamond()
            else:
                u = TickVar(self.bound(sc, TICK))
            while stack:
                stack[-1].append(u)
                self.expect(",")
                if len(stack[-1]) == 1:
                    break
                r = self.interval(sc, False, False)
                self.expect(")")
                u = Tirr(*stack.pop(), r)
            else:
                return u

    # -- interval expressions and faces --------------------------------------

    def endpoint(self, face):
        """A number that must be 0 or 1, as an end of a face (with face) or
        of an interval."""
        n = int(self.toks[self.pos])
        if n not in (0, 1):
            n = self.error(self.pos, ParseError(
                "expected a face formula" if face else _MISPLACED[IVAL])) or 0
        self.pos += 1
        return (FBOT, FTOP)[n] if face else (IZERO, IONE)[n]

    def interval(self, sc, face, atom):
        """The interval expression (with face, the face) at the cursor in
        sc, or only its first operand, with atom; read with a stack of the
        `~`s, '('s and operators (with their left operands) open around the
        operand read.  An operator applies those that bind at least as
        tightly first, so both are left associative."""
        toks, kind, stack = self.toks, self.kind, []
        while True:
            tok = toks[self.pos]
            if kind[tok] == "num":
                x = self.endpoint(face)
            elif face:
                pos = self.pos + 1
                if tok == "(" and toks[pos] in self.names \
                        and toks[pos + 1] == "=" \
                        and toks[pos + 2] in ("0", "1") \
                        and toks[pos + 3] == ")":
                    # `(i = 0)` as `face_end` reads it, in one step.
                    self.pos = pos + 4
                    x = FEq(self.bound(sc, IVAL, pos, toks[pos]),
                            int(toks[pos + 2]))
                else:
                    self.expect("(")
                    if kind[toks[pos]] != "ident" or toks[pos + 1] != "=":
                        stack.append(_OPEN)
                        continue
                    name = self.name()
                    end = self.face_end()
                    x = FEq(self.bound(sc, IVAL, pos, name), end)
            elif tok == "~" or tok == "(":
                self.pos += 1
                stack.append(_NOT if tok == "~" else _OPEN)
                continue
            else:
                x = IVar(self.bound(sc, IVAL))
            while True:
                while stack and stack[-1] is _NOT:
                    stack.pop()
                    x = self.lattice(self.pos, INeg, x)
                if atom and not stack:
                    return x
                prec = _LATTICE_OPS.get(toks[self.pos])
                while stack and stack[-1] is not _OPEN \
                        and (prec is None or stack[-1][1] >= prec):
                    left, op = stack.pop()
                    x = self.lattice(self.pos, meet if op == 2 else join,
                                     left, x)
                if prec is not None:
                    self.pos += 1
                    stack.append((x, prec))
                    break
                if not stack:
                    return x
                self.expect(")")
                stack.pop()

    def face_end(self):
        """The rest of `(name = 0)` or `(name = 1)` after the name."""
        toks, pos = self.toks, self.pos
        self.expect("=", pos)
        if self.kind[toks[pos + 1]] != "num":
            self.fail("expected 'num'", pos + 1)
        if int(toks[pos + 1]) not in (0, 1):
            self.fail("a face equation ends in 0 or 1", pos + 2)
        self.expect(")", pos + 2)
        return int(toks[pos + 1])

    def bracket_parts(self, sc, sci, mode=TERM, bare=None):
        """`[phi -> t, ...]`, faces read in sc and terms in sci: (face,
        term or None, the token after the face) for each entry.  An entry
        without a term has the error `bare`, if given, in place of its
        face's errors."""
        self.expect("[")
        parts = []
        while parts or not self.at("]"):
            start, saved = self.pos, self.err
            phi = self.interval(sc, True, False)
            mid = self.pos
            if self.at("->"):
                self.pos += 1
                parts.append((phi, self.read(sci, _S_TERM, mode), mid))
            else:
                if bare is not None:
                    self.err = saved
                    self.error(start, ParseError(bare))
                parts.append((phi, None, mid))
            if not self.at(","):
                break
            self.pos += 1
        self.expect("]")
        return parts

    # -- atoms with parts of several kinds ------------------------------------

    def compound(self, sc, mode):
        """The atom at the cursor that `read` does not read in its loop: a
        system, a composition, a transport, an eliminator, or a tick
        expression, misplaced."""
        start = self.pos
        value = self.toks[start]
        if value == "tirr":
            self.tick_expr(sc)
            return self.misplaced(start, TERM,
                                  "tick expression used in term position")
        if value == "clockelim":
            return self.clockelim(sc)
        if value == "[":
            parts = self.bracket_parts(sc, sc)
            if any(t is None for _, t, _ in parts):
                self.fail("a system component needs '-> term'")
            return System(tuple((phi, t) for phi, t, _ in parts))
        if value not in ("comp", "hcomp", "trans"):
            self.fail(f"keyword {value!r} cannot start a term here"
                      if self.kind[value] == "ident" else "expected a term")
        self.expect("^", start + 1)
        sci = (self.name(),) + sc[0], (IVAL,) + sc[1]
        if value == "trans":
            ty, phi = self.read(sci, _S_ATOM), FBOT
            if self.at("["):
                self.pos += 1
                phi = self.interval(sc, True, False)
                self.expect("]")
            return Trans(ty, phi, self.read(sc, _S_ATOM))
        bnd = mode is _BOUNDARY
        ty = _PLACEHOLDER[TERM]
        if not self.at("["):
            if bnd:
                self.error(start, ParseError(
                    "a boundary hcomp carries no type annotation"))
            ty = self.read(sci if value == "comp" else sc, _S_ATOM)
        elif not bnd:
            self.error(start, ParseError(f"{value} needs a type annotation"))
        saved = self.err
        parts = self.bracket_parts(
            sc, sci, mode, None if bnd else "a tube component needs"
            " '-> term'")
        base = self.read(sc, _S_ATOM, mode)
        if not bnd:
            parts = [(phi, t) for phi, t, _ in parts if t is not None]
            return (Comp if value == "comp" else HComp)(
                ty, self.lattice(start, face_join, [phi for phi, _ in parts]),
                System(tuple(
                    (weaken_iv(phi, I1), t) for phi, t in parts)), base)
        if len(parts) == 1 and parts[0][1] is not None:
            return HComp(Hit(self.data_name, self.bnd.params),
                         parts[0][0], parts[0][1], base)
        self.err = saved
        self.error(start, ParseError(
            "a boundary hcomp has exactly one tube component"))
        return _PLACEHOLDER[_BOUNDARY]

    def clockelim(self, sc):
        start = self.pos
        self.expect("^", start + 1)
        n = int(self.expect_kind("num"))
        hit = self.name()
        sig = self.sigs.get(hit)
        if sig is None:
            self.error(start, UnboundVariable(f"unbound name {hit!r}",
                                              name=hit))
        saved = self.err
        spine = []
        while not self.at("into"):
            tok = self.toks[self.pos]
            if tok not in self.names and self.kind[tok] != "num" \
                    and tok not in ("(", "~"):
                self.fail("expected an argument or 'into'")
            spine.append(self.read(sc, _S_ATOM))
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
        motive = self.read(((hvar,) + sc[0], (TERM,) + sc[1]))
        self.expect(")")
        self.expect("with")
        cases = []
        while self.at("|"):
            pos = self.pos + 1
            label = self.name(pos)
            names = []
            self.pos = pos + 1
            while not self.at("=>"):
                names.append(self.name())
            self.pos += 1
            ctor = None if sig is None else next(
                (c for c in sig.constructors if c.label == label), None)
            counts = (len(names), 0, 0) if ctor is None else (
                len(ctor.args.types), len(ctor.rec_arities), ctor.ivar_count)
            # The case without its body yet: the names it binds.
            blank = ElimCase(label, *counts, None)
            terms, _, _, ivals = blank.binders
            if sig is not None and ctor is None:
                self.error(pos, ParseError(
                    f"{hit} has no constructor {label!r}"))
            elif ctor is not None and len(names) != terms + ivals:
                self.error(pos, ParseError(
                    f"case for {label} binds {terms + ivals} names,"
                    f" got {len(names)}"))
            inner = sc
            for k, nm in enumerate(names):
                inner = (nm,) + inner[0], \
                    (TERM if k < terms else IVAL,) + inner[1]
            cases.append(blank.with_body(self.read(inner)))
        return ClockElim(hit, n, tuple(spine[:-1]), motive, tuple(cases),
                         spine[-1])

    # -- boundaries ----------------------------------------------------------

    def past_recs(self, t):
        """t, read in a boundary's scope, moved past the recursive
        arguments, which that scope leaves out."""
        return weaken(t, (len(self.bnd.recs), 0, 0, 0))

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

    def boundary(self, sc, label):
        """A constructor's boundary `[phi -> M, ..., psi]`, read in sc: its
        pieces, and its face, which the bare entry, if any, extends."""
        arrows, faces, bare, start = [], [], None, self.pos
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
        return tuple(arrows), self.lattice(start, face_join, faces)

    # -- declarations --------------------------------------------------------

    def binder_groups(self, sc):
        """`(x y : A) ...`: a type per name, each read in the scope of the
        names before it, and the scope past them all."""
        doms = []
        while (names := self.group(self.pos)) is not None:
            at = self.pos + len(names) + 2
            for nm in names:
                self.pos = at
                doms.append(self.read(sc))
                sc = (nm,) + sc[0], (TERM,) + sc[1]
            self.expect(")")
        return doms, sc

    def module(self):
        decls, expect = [], None
        while self.toks[self.pos] != "":
            at = self.pos
            tok = self.toks[at]
            if tok in ("--expect-pass", "--expect-fail"):
                if expect is not None:
                    self.fail("duplicate expectation pragma", at + 1)
                self.pos, expect = at + 1, ("pass",)
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
                expect = expect if conv else None
            else:
                self.fail("expected a declaration")
        if expect is not None:
            raise ParseError("expectation pragma not attached to a declaration")
        return tuple(decls)

    def decl(self, expect):
        """The declaration here (a `def`, a `data` or a conversion pragma):
        its name, expect, and its kernel form, or the earliest error in it
        other than a syntax error."""
        self.err, at, kw = None, self.pos, self.toks[self.pos]
        self.pos += 1
        if kw == "data":
            name, d = self.data_decl(at, expect)
        elif kw == "def":
            name = self.fresh_name(at)
            doms, sc = self.binder_groups(((), ()))
            self.expect(":")
            ty = self.read(sc)
            self.expect(":=")
            body = self.read(sc)
            for dom in reversed(doms):
                ty, body = Pi(dom, ty), Lam(body)
            if self.err is None:
                self.defs.add(name)
            d = Definition(name, ty, body, expect)
        else:
            self.conv_count += 1
            name = f"conv{self.conv_count}"
            lhs = self.read(((), ()))
            self.expect("=")
            rhs = self.read(((), ()))
            self.expect(":")
            d = ConvCheck(name, self.read(((), ())), lhs, rhs,
                          kw == "--expect-conv")
        return name, expect, d if self.err is None else self.err[1]

    def fresh_name(self, kw, taken=()):
        """A name not declared before; kw is the index of its declaration's
        keyword."""
        name = self.name()
        if name in self.defs or name in self.sigs or name in self.labels \
                or name in taken:
            self.error(self.pos - 1, ParseError(
                f"line {position(self.text, kw)[0]}: {name!r} is already"
                " declared"))
        return name

    def data_decl(self, kw, expect):
        name = self.fresh_name(kw)
        ptypes, sc = self.binder_groups(((), ()))
        level = 0
        if self.at(":"):
            self.pos += 1
            m = _UNIVERSE.match(self.expect_kind("ident"))
            if not m:
                self.fail("expected a universe after ':'")
            level = int(m[1])
        self.expect("where")
        self.data_name, self.arities, ctors = name, {}, []
        while self.at("|"):
            self.pos += 1
            ctors.append(self.ctor(sc, self.fresh_name(kw, self.arities)))
        # A boundary that named a head unknown when it was read is read
        # again, now that every constructor's shape is known.
        end = self.pos
        for c in ctors:
            if c[-1] is not None:
                bsc, self.bnd, self.pos = c[-1]
                c[4:6] = self.boundary(bsc, c[0])
        self.pos, self.data_name = end, None
        sig = HitSignature(name, Telescope(tuple(ptypes)), level, tuple([
            Constructor(label, Telescope(tuple(atypes)), tuple(recs), v,
                        face, arrows)
            for label, atypes, recs, v, arrows, face, _ in ctors]))
        for c in ctors:
            (self.labels if self.err is None else self.dropped)[c[0]] = name
        if self.err is None:
            self.sigs[name] = sig
            self.plain.update([name] + [c[0] for c in ctors if not c[3]])
            self.shapes[name] = name, len(ptypes), None, None, None
            for label, atypes, recs, v, _, _, _ in ctors:
                self.shapes[label] = name, len(ptypes), len(atypes), \
                    len(recs), v
        return name, DataDefinition(sig, expect)

    def ctor(self, sc, label):
        """The rest of a constructor after its label: [label, argument
        types, recursive arities, interval count, boundary pieces, face,
        and what it takes to read the boundary again (or None)]."""
        atypes, recs, recnames, ivnames = [], [], [], []
        phase = 0
        while (names := self.group(self.pos)) is not None:
            close, at = self.close[self.pos], self.pos + 1
            lo = at + len(names) + 1
            if close is not None and self._bare(lo, close) == "I":
                ivnames += names
                phase, self.pos, names = 2, close, ()
            for k, nm in enumerate(names):
                self.pos = lo
                if self.toks[lo] == self.data_name \
                        and self.toks[lo + 1] not in self.goes_on \
                        and self.toks[lo] not in self.universes:
                    # The data type alone, as `read` reads it.
                    ty = t = _RECURSIVE
                    self.pos += 1
                else:
                    ty = t = self.read(sc, _S_TERM, _REC_TYPE)
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
                    sc = (nm,) + sc[0], (TERM,) + sc[1]
            self.expect(")")
        # How a boundary reads the constructor's arguments, recursive
        # ones first: the modes of `_F_ARGS`, where a function-valued
        # recursive slot's is (its index, its arity, the label).
        self.arities[label] = (len(atypes), len(recs), len(ivnames), tuple([
            (k, len(tele.types), label) if tele.types else _BOUNDARY
            for k, tele in enumerate(recs)]) + (TERM,) * len(atypes)
            + (IVAL,) * len(ivnames))
        terms = sc[1].count(TERM)  # the parameters and the arguments
        self.bnd = _Boundary(
            label, {nm: (j, len(recs[j].types))
                    for j, nm in enumerate(recnames)},
            tuple(Var(len(recs) + terms - 1 - p)
                  for p in range(terms - len(atypes))))
        sc = tuple(reversed(ivnames)) + sc[0], (IVAL,) * len(ivnames) + sc[1]
        if not self.at("["):
            return [label, atypes, recs, len(ivnames), (), FBOT, None]
        at, saved, self.unknown = self.pos, self.err, False
        arrows, face = self.boundary(sc, label)
        if not self.unknown:
            return [label, atypes, recs, len(ivnames), arrows, face, None]
        self.err = saved
        return [label, atypes, recs, len(ivnames), arrows, face,
                (sc, self.bnd, at)]


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

# The binders of `_BINDERS` as printed: opening, sort and closing, by the
# term they build; and the prefix of a fresh name of each sort.
_PRINTED_BINDERS = {make: (tok + " " * tok.isalpha(), sort, closer)
                    for tok, (make, sort, closer) in _BINDERS.items()}
_PREFIX = {TERM: "x", IVAL: "i", CLOCK: "k"}
# The names in scope per sort, innermost last, where a declaration starts.
_NO_NAMES = {TERM: (), CLOCK: (), TICK: (), IVAL: ()}


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
        return K0_NAME if ix == K0 else env[sort][-1 - ix]

    @staticmethod
    def push(env, sort, name):
        out = dict(env)
        out[sort] = out[sort] + (name,)
        return out

    def atom(self, env, t):
        s = self.term(env, t)
        if isinstance(t, (Var, TopRef, U)) or isinstance(t, Hit) \
                and not t.params or isinstance(t, Con) and not (
                    t.params or t.args or t.recs or t.ivals):
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
            case Lam(body) | PLam(body) | Forall(body) | CLam(body):
                opener, sort, closer = _PRINTED_BINDERS[type(t)]
                nm = self.fresh(_PREFIX[sort])
                return f"{opener}{nm}{closer}" \
                    f" {self.term(self.push(env, sort, nm), body)}"
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
            case PApp(fn, arg):
                return f"{self.atom(env, fn)} @ {self.iv(env, arg)}"
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
            case DFix(clock, fn) | PFix(clock, fn):
                return f"{type(t).__name__.lower()}" \
                    f" {self.lookup(env, CLOCK, clock)} {self.atom(env, fn)}"
            case Comp(ty, face, tube, base) | HComp(ty, face, tube, base):
                return self._comp(env, type(t).__name__.lower(), ty, face,
                                  tube, base, ty_under_ivar=type(t) is Comp)
            case Trans(ty, face, base):
                nm = self.fresh("i")
                env2 = self.push(env, IVAL, nm)
                return f"trans^{nm} {self.atom(env2, ty)}" \
                    f" [{self.iv(env, face)}] {self.atom(env, base)}"
            case Hit(name, params):
                return " ".join([name] + [self.atom(env, p) for p in params])
            case Con(_, label, params, args, recs, ivals):
                return " ".join([label] + [self.atom(env, x) for x in (
                    *params, *args, *recs)] + [self.iv(env, x) for x in ivals])
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
        for _ in range(c.binders[0]):
            nm = self.fresh("x")
            names.append(nm)
            env2 = self.push(env2, TERM, nm)
        for _ in range(c.binders[3]):
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


def _expect_line(expect):
    if expect is None:
        return None
    if expect[0] == "pass":
        return "--expect-pass"
    return f"--expect-fail({expect[1]})"


def print_module(module):
    taken = {K0_NAME, "I"} | set(RESERVED)
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
                env = _NO_NAMES
                lines.append(f"def {name} : {pr.term(env, ty)}"
                             f" := {pr.term(env, body)}")
                chunks.append("\n".join(lines))
            case DataDefinition(sig, expect):
                chunks.append(_print_data(pr, sig, expect))
            case ConvCheck(_, ty, lhs, rhs, want):
                env = _NO_NAMES
                kw = "--expect-conv" if want else "--expect-not-conv"
                chunks.append(f"{kw} {pr.term(env, lhs)} ="
                              f" {pr.term(env, rhs)} : {pr.term(env, ty)}")
    return "\n\n".join(chunks) + "\n"


def _print_data(pr, sig, expect):
    lines = []
    if (p := _expect_line(expect)) is not None:
        lines.append(p)
    env = _NO_NAMES
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
