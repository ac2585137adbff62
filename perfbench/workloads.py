"""Seeded input generators for the three benchmark workloads.

Every generator returns a list of `Input`s.  Each input carries, next to its
text, the declarations `cctt check` must report for it, in order; each one
must come out `PASS`.  The answers are worked out here, in Python, from the
way the input was built (Church numerals and `clockelim^0` arithmetic are
evaluated with Python integers).  Nothing in this module imports or runs the
checker.

The same seed always gives byte-identical inputs.  Another seed gives other
terms, names and orders, but the same number of files and declarations and
the same shape of work, so that figures from different seeds compare.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Input:
    path: str
    text: str
    expected: tuple  # declaration names, each expected to report PASS
    family: str


# --------------------------------------------------------------------------
# corpus: the checked-in library, minus the one fuel-bound file
# --------------------------------------------------------------------------

# `fuel-exhausted.cctt` spends a fixed budget of 1M steps on one code path;
# its time moves only with per-step cost, so a change that removes steps
# would show no gain on it, while it would dominate every other figure.
CORPUS_EXCLUDE = ("neg/fuel-exhausted.cctt",)

_DECL_RE = re.compile(r"^(?:def|data)\s+(\S+)|^--expect-(?:not-)?conv\b",
                      re.MULTILINE)


def corpus_expected(text):
    """Declaration names `cctt check` reports for a corpus file, in order.

    The corpus states its own answers in pragmas; a file marked
    `--expect-fail(ParseError)` reports a single `module` verdict.
    """
    if "--expect-fail(ParseError)" in text:
        return ("module",)
    names, convs = [], 0
    for m in _DECL_RE.finditer(text):
        if m.group(1) is None:
            convs += 1
            names.append(f"conv{convs}")
        else:
            names.append(m.group(1))
    return tuple(names)


def corpus(seed, root):
    base = Path(root) / "corpus"
    files = []
    for path in sorted(base.rglob("*.cctt")):
        rel = path.relative_to(base).as_posix()
        if rel in CORPUS_EXCLUDE:
            continue
        text = path.read_text(encoding="utf-8")
        files.append(Input(f"corpus/{rel}", text, corpus_expected(text),
                           rel.split("/")[0]))
    # The seed fixes the order in which the files are checked.
    random.Random(seed).shuffle(files)
    return files


# --------------------------------------------------------------------------
# Shared surface-syntax helpers
# --------------------------------------------------------------------------

NAT = "data nat : U0 where\n  | zero\n  | succ (m : nat)\n"
CHURCH = "(nat -> nat) -> nat -> nat"


def nat_lit(n):
    """`succ (succ (... zero))`: n constructors, n - 1 nested parentheses."""
    if n == 0:
        return "zero"
    return "succ (" * (n - 1) + "succ zero" + ")" * (n - 1)


def paren(s):
    return s if " " not in s else f"({s})"


def church_body(n):
    """Body of the Church numeral n, under binders f and x."""
    if n == 0:
        return "x"
    return "f (" * (n - 1) + "f x" + ")" * (n - 1)


class _File:
    """Accumulates declarations and the names `cctt check` will report."""

    def __init__(self):
        self.parts = []
        self.names = []
        self.convs = 0

    def define(self, name, text, pragma="--expect-pass"):
        self.parts.append(f"{pragma}\n{text}" if pragma else text)
        self.names.append(name)

    def conv(self, lhs, rhs, ty, equal):
        kind = "conv" if equal else "not-conv"
        self.parts.append(f"--expect-{kind}\n  {lhs}\n  = {rhs}\n  : {ty}")
        self.convs += 1
        self.names.append(f"conv{self.convs}")

    def build(self, path, family):
        return Input(path, "\n\n".join(self.parts) + "\n", tuple(self.names),
                     family)


# --------------------------------------------------------------------------
# reduce: conversion problems that finish with a verdict
# --------------------------------------------------------------------------

# Church terms, built from the numerals c2..c4 by `mul`, `sq` and `add`.
# A term is ("mul", leaves): the product of the leaves, in a seeded order and
# bracketing; ("sq", leaves): the square of such a product; or
# ("add", leaves, leaves): the sum of two products.  The seed moves leaves
# and brackets, which changes the term but only a little the reduction
# work, so the cost of a file hardly depends on the seed.
#
# Terms applied to `idf zero` (value 12 to 256); heavier terms substitute
# deeper, which lowers steps per second.  No term goes past 256, so that a
# pass takes well under a second and a run of 30 s times each declaration
# some 20 times (see NOTES.md, "Noise").
REDUCE_IDF_TERMS = (
    ("mul", (3, 4)), ("mul", (2, 3, 4)), ("sq", (2, 3)),
    ("add", (3, 4), (2, 4, 4)), ("mul", (3, 4, 4)),
    ("add", (2, 4, 4), (3, 4, 4)), ("mul", (2, 3, 4, 4)),
    ("add", (4, 4, 4), (2, 4, 4)), ("sq", (3, 4)),
    ("mul", (2, 4, 4, 4)), ("sq", (4, 4)), ("mul", (4, 4, 4, 4)),
)
# Terms applied to `sc zero` and compared with a written numeral, which
# nests one parenthesis per unit: values stay at most 48, well under the
# parser's nesting limit and the kernel's recursion limit.
REDUCE_SC_TERMS = (
    ("mul", (2, 4)), ("mul", (3, 4)), ("add", (2, 3), (2, 4)),
    ("mul", (2, 3, 4)), ("sq", (2, 3)), ("mul", (3, 4, 4)),
)
REDUCE_ELIM_PRODUCTS = ((3, 4), (4, 5), (5, 6), (6, 7))
REDUCE_FORCE_DEPTHS = (3, 6, 9, 12)
REDUCE_FILES = 2


def _product(rng, leaves):
    """A `mul` term over the numerals `leaves`, in seeded order and
    bracketing, with its value."""
    leaves = list(leaves)
    rng.shuffle(leaves)

    def build(ls):
        if len(ls) == 1:
            return f"c{ls[0]}", ls[0]
        k = rng.randrange(1, len(ls))
        (a, va), (b, vb) = build(ls[:k]), build(ls[k:])
        return f"mul {paren(a)} {paren(b)}", va * vb

    return build(leaves)


def _church_term(rng, spec):
    match spec:
        case ("mul", leaves):
            return _product(rng, leaves)
        case ("sq", leaves):
            t, v = _product(rng, leaves)
            return f"sq {paren(t)}", v * v
        case ("add", left, right):
            (a, va), (b, vb) = _product(rng, left), _product(rng, right)
            if rng.random() < 0.5:
                a, b = b, a
            return f"add {paren(a)} {paren(b)}", va + vb
    raise ValueError(spec)


def _reduce_header(f, tag):
    f.define("nat", NAT, None)
    f.define("idf", "def idf : nat -> nat := \\x. x", None)
    f.define("sc", "def sc : nat -> nat := \\x. succ x", None)
    for n in range(2, 5):
        f.define(f"c{n}", f"def c{n} : {CHURCH} := \\f. \\x. {church_body(n)}",
                 None)
    f.define("add", f"def add : ({CHURCH}) -> ({CHURCH}) -> {CHURCH} :=\n"
                    "  \\m. \\n. \\f. \\x. m f (n f x)", None)
    f.define("mul", f"def mul : ({CHURCH}) -> ({CHURCH}) -> {CHURCH} :=\n"
                    "  \\m. \\n. \\f. m (n f)", None)
    f.define("sq", f"def sq : ({CHURCH}) -> {CHURCH} :=\n"
                   "  \\n. \\f. n (n f)", None)
    f.define("addE", "def addE (m : nat) (n : nat) : nat :=\n"
                     "  clockelim^0 nat m into (h. nat) with\n"
                     "  | zero => n\n"
                     f"  | succ {tag}x {tag}y => succ {tag}y")
    f.define("mulE", "def mulE (m : nat) (n : nat) : nat :=\n"
                     "  clockelim^0 nat m into (h. nat) with\n"
                     "  | zero => zero\n"
                     f"  | succ {tag}x {tag}y => addE n {tag}y")
    f.define("force", "def force (A : U0) (x : forall k. |> (a : k) A)"
                      " : forall k. A :=\n  /\\k'. (k. x {k}) [k', <>]")
    f.define("delay", "def delay (A : U0) (x : forall k. A)"
                      " : forall k. |> (a : k) A :=\n"
                      "  /\\k. tick a : k. x {k}")


def _force_chain(depth, a, x):
    """`depth` nested round trips `force a (delay a ...)` around `x`."""
    return "force {a} (delay {a} (".format(a=a) * depth + x + "))" * depth


def _reduce_file(rng, index):
    f = _File()
    tag = rng.choice("pqruvw")
    _reduce_header(f, tag)
    problems = []
    for k, spec in enumerate(REDUCE_IDF_TERMS):
        term, _ = _church_term(rng, spec)
        if k % 2 == 0:
            name = f"r{index}_{k}"
            problems.append((f.define, (
                name, f"def {name} (P : (n : nat) -> U0) (h : P zero)"
                      f" : P ({term} idf zero) := h")))
        else:
            # A term of positive value applied to `idf zero` is zero.
            problems.append((f.conv, (f"{term} idf zero", "succ zero", "nat",
                                      False)))
    for spec in REDUCE_SC_TERMS:
        term, value = _church_term(rng, spec)
        wrong = value + rng.choice((-1, 1))
        problems.append((f.conv, (f"{term} sc zero", nat_lit(value), "nat",
                                  True)))
        problems.append((f.conv, (f"{term} sc zero", nat_lit(wrong), "nat",
                                  False)))
    for a, b in REDUCE_ELIM_PRODUCTS:
        if rng.random() < 0.5:
            a, b = b, a
        la, lb = paren(nat_lit(a)), paren(nat_lit(b))
        lhs = f"mulE {la} {lb}"
        problems.append((f.conv, (lhs, nat_lit(a * b), "nat", True)))
        # b + a * b differs from a * b because b is positive.
        problems.append((f.conv, (lhs, f"addE {lb} ({lhs})", "nat", False)))
    for depth in REDUCE_FORCE_DEPTHS:
        a, x, y = rng.choice((("A", "x", "y"), ("B", "u", "v"),
                              ("T", "s", "t")))
        clock_ty = f"(x : forall k. {a})"
        problems.append((f.conv, (
            f"\\{a}. \\{x}. {_force_chain(depth, a, x)}", f"\\{a}. \\{x}. {x}",
            f"({a} : U0) -> {clock_ty} -> forall k. {a}", True)))
        problems.append((f.conv, (
            f"\\{a}. \\{x}. \\{y}. {_force_chain(depth, a, x)}",
            f"\\{a}. \\{x}. \\{y}. {y}",
            f"({a} : U0) -> {clock_ty} -> {clock_ty} -> forall k. {a}",
            False)))
    rng.shuffle(problems)
    for emit, args in problems:
        emit(*args)
    return f.build(f"reduce/r{index}.cctt", "reduce")


def reduce(seed, root=None):
    rng = random.Random(seed)
    return [_reduce_file(rng, i) for i in range(REDUCE_FILES)]


# --------------------------------------------------------------------------
# scale: large inputs, little reduction
# --------------------------------------------------------------------------

SCALE_MANY_FILES = 2
SCALE_MANY_BLOCKS = 40  # 8 declarations each
# Sizes stop where one declaration takes some tens of milliseconds, so that
# a run of 30 s times each declaration some 30 times (see NOTES.md, "Noise").
SCALE_PSET_SIZES = (40, 80, 120)
SCALE_CUBE_DIMS = (4, 8, 12, 14)
SCALE_COMP_DEPTHS = (5, 10, 15, 20)
# Nesting depths on both sides of the known crash points: the parser
# overflows the default recursion limit at about 150 nested parentheses,
# and conversion at 200 to 400 nested constructors.  The deepest input of
# each kind is past its crash point; it is kept, and counted as failed,
# until the checker handles it.
SCALE_PAREN_DEPTHS = (20, 40, 80, 300)
SCALE_KERNEL_DEPTHS = ((5, 8), (8, 10), (10, 12), (20, 40))


def _many_block(f, rng, b):
    """Eight small declarations: a data type, a chain of three definitions
    with a conversion check on it, and three unrelated definitions."""
    f.define(f"t{b}", f"data t{b} : U0 where\n  | a{b}\n  | s{b} (m : t{b})\n",
             None)
    groups = []
    chain = []
    for j in range(3):
        prev = f"g{b}_{j - 1} (succ x)" if j else "succ x"
        chain.append((f"g{b}_{j}",
                      f"def g{b}_{j} : nat -> nat := \\x. {prev}"))
    groups.append(chain)
    # g_b_2 zero unfolds to three successors of zero.
    want = rng.choice((2, 3, 3, 4))
    groups[0].append((None, (f"g{b}_2 zero", nat_lit(want), "nat",
                             want == 3)))
    groups.append([(f"e{b}", f"def e{b} : t{b} := s{b} (s{b} a{b})")])
    groups.append([(f"p{b}", f"def p{b} (A : U0) (x : A) : Path A x x"
                             f" := <i> x")])
    groups.append([(f"k{b}", f"def k{b} (A : U0) (B : U0) (a : A) (y : B)"
                             f" : A := a")])
    rng.shuffle(groups)
    for group in groups:
        for name, body in group:
            if name is None:
                f.conv(*body)
            else:
                f.define(name, body)


def _many_file(rng, index):
    f = _File()
    f.define("nat", NAT, None)
    for b in range(SCALE_MANY_BLOCKS):
        _many_block(f, rng, b)
    return f.build(f"scale/many{index}.cctt", "many")


# Powerset-style path constructors: (arguments, face at 0, face at 1).
_PSET_CTORS = (
    ("(x : pf) (y : pf)", "union x y", "union y x"),
    ("(x : pf)", "union x x", "x"),
    ("(x : pf)", "union empty x", "x"),
    ("(x : pf) (y : pf) (z : pf)", "union x (union y z)",
     "union (union x y) z"),
)


def _pset_file(rng, n):
    f = _File()
    lines = ["data pf (A : U0) : U0 where", "  | empty", "  | sing (a : A)",
             "  | union (x : pf) (y : pf)"]
    # Every run of four constructors takes each form once, in a seeded
    # order, so that the seed changes the signature but not its cost.
    forms = []
    for k in range(n):
        if not forms:
            forms = rng.sample(_PSET_CTORS, len(_PSET_CTORS))
        args, at0, at1 = forms.pop()
        lines.append(f"  | q{k} {args} (i : I)\n"
                     f"      [(i = 0) -> {at0}, (i = 1) -> {at1}]")
    # The idempotence law comes last, whatever the seed drew, for the
    # endpoint check below.
    lines.append("  | idem (x : pf) (i : I)\n"
                 "      [(i = 0) -> union x x, (i = 1) -> x]")
    f.define("pf", "\n".join(lines) + "\n", None)
    end = rng.choice((0, 1))
    rhs = "union A x x" if end == 0 else "x"
    f.conv(f"\\A. \\x. idem A x {end}", f"\\A. \\x. {rhs}",
           "(A : U0) -> (x : pf A) -> pf A", True)
    return f.build(f"scale/pset{n}.cctt", "pset")


def _cube_file(rng, n):
    f = _File()
    names = [f"i{k}" for k in range(n)]
    rng.shuffle(names)
    faces = ",\n       ".join(f"({v} = {e}) -> pt" for v in names
                              for e in (0, 1))
    binders = " ".join(f"({v} : I)" for v in sorted(names))
    f.define("cube", f"data cube : U0 where\n  | pt\n  | cell {binders}\n"
                     f"      [{faces}]\n", None)
    # Any coordinate at 0 or 1 puts the cell on its boundary, which is the
    # point; with every coordinate free it is not.
    k = rng.randrange(n)
    args = " ".join("i" if j != k else rng.choice("01") for j in range(n))
    f.conv(f"<i> cell {args}", "<i> pt", "Path cube pt pt", True)
    f.conv(f"<i> cell {' '.join('i' * n)}", "<i> pt", "Path cube pt pt",
           False)
    return f.build(f"scale/cube{n}.cctt", "cube")


def _comp_file(rng, n):
    """`n` nested compositions, each with tube `x` at `i = 0` and `y` at
    `i = 1`, around the base `p @ i`: a path from x to y."""
    f = _File()
    a, x, y = rng.choice((("A", "x", "y"), ("B", "u", "v"), ("T", "s", "t")))
    inner = "p @ i"
    for _ in range(n):
        inner = f"comp^j {a} [(i = 0) -> {x}, (i = 1) -> {y}] ({inner})"
    f.define("cc", f"def cc ({a} : U0) ({x} : {a}) ({y} : {a})"
                   f" (p : Path {a} {x} {y}) : Path {a} {x} {y} :=\n"
                   f"  <i> {inner}")
    return f.build(f"scale/comp{n}.cctt", "comp")


def _paren_file(depth):
    f = _File()
    f.define("nat", NAT, None)
    f.define("big", f"def big : nat := {nat_lit(depth)}")
    return f.build(f"scale/paren{depth}.cctt", "depth")


def _kernel_file(rng, a, b):
    """Conversion of two Church products that both unfold to a*b nested
    successors, in the two orders of multiplication."""
    if rng.random() < 0.5:
        a, b = b, a
    f = _File()
    f.define("nat", NAT, None)
    f.define("sc", "def sc : nat -> nat := \\x. succ x", None)
    f.define("ca", f"def ca : {CHURCH} := \\f. \\x. {church_body(a)}", None)
    f.define("cb", f"def cb : {CHURCH} := \\f. \\x. {church_body(b)}", None)
    f.define("mul", f"def mul : ({CHURCH}) -> ({CHURCH}) -> {CHURCH} :=\n"
                    "  \\m. \\n. \\f. m (n f)", None)
    f.conv("mul ca cb sc zero", "mul cb ca sc zero", "nat", True)
    return f.build(f"scale/kernel{a * b}.cctt", "depth")


def scale(seed, root=None):
    rng = random.Random(seed)
    files = [_many_file(rng, i) for i in range(SCALE_MANY_FILES)]
    files += [_pset_file(rng, n) for n in SCALE_PSET_SIZES]
    files += [_cube_file(rng, n) for n in SCALE_CUBE_DIMS]
    files += [_comp_file(rng, n) for n in SCALE_COMP_DEPTHS]
    files += [_paren_file(d) for d in SCALE_PAREN_DEPTHS]
    files += [_kernel_file(rng, a, b) for a, b in SCALE_KERNEL_DEPTHS]
    rng.shuffle(files)
    return files


GENERATORS = {"corpus": corpus, "reduce": reduce, "scale": scale}
