"""The bundled corpus: every expectation holds, the output of
`cctt check --corpus corpus` (with and without `--trace-conv`) and the
steps each file spends are those recorded in `tests/golden`, every file
that elaborates survives a parse-print-parse round trip, the
loose-variable bound of every term it elaborates to agrees with its free
indices, and single-token mutants of its HIT files each get a verdict per
declaration, the one recorded in `tests/golden`."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cctt import cli
from cctt.checker import CheckState
from cctt.__main__ import main
from cctt.cli import EXPECT_PARSE_ERROR, Report, check_file
from cctt.errors import CcttError, ParseError, UnboundVariable
from cctt.parser import (
    ConvCheck, DataDefinition, Definition, parse_module, print_module,
    surface_module,
)
from cctt.syntax import Con, ElimCase, Hit, Term, TopRef, loose_bound
from oracles import bound_of, load_workloads, token_mutants

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
FILES = sorted(CORPUS.rglob("*.cctt"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_corpus_is_present():
    assert CORPUS.is_dir()
    assert len(FILES) >= 30


def test_corpus_all_expectations_met(capsys):
    code = main(["check", "--corpus", str(CORPUS)])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL", "SKIP"))]
    assert lines and all(ln.startswith("PASS") for ln in lines)
    assert " 0 failed, 0 skipped" in out.splitlines()[-1]


# The flags of each recorded `cctt check --corpus corpus` run, and the
# file in `tests/golden` that records its output.
CORPUS_RUNS = [((), "corpus-check.txt"),
               (("--trace-conv",), "corpus-trace-conv.txt")]


def corpus_output(flags):
    """The exit code and output of `cctt check --corpus corpus` with the
    given flags, run from the repository's root."""
    out = io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(out):
        code = main(["check", "--corpus", "corpus", *flags])
    return code, out.getvalue()


@pytest.mark.parametrize("flags, golden", CORPUS_RUNS,
                         ids=["plain", "trace-conv"])
def test_corpus_output_is_the_recorded_one(flags, golden):
    # A change to reduction or conversion that keeps every verdict must
    # keep the report, the normal forms `--trace-conv` prints included.
    # `python tests/test_corpus.py` rewrites the record.
    code, out = corpus_output(flags)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_corpus_steps_are_the_recorded_ones(monkeypatch):
    # Steps do not depend on the machine: a change that alters them alters
    # what the kernel computes, and must say so by updating the record.
    states = []

    class Recording(CheckState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    monkeypatch.setattr(cli, "CheckState", Recording)
    steps = {}
    for path in FILES:
        states.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            check_file(str(path), path.read_text(encoding="utf-8"),
                       1_000_000, Report())
        name = path.relative_to(CORPUS).as_posix()
        steps[name] = states[0].steps if states else None
    recorded = json.loads((GOLDEN / "corpus-steps.json").read_text())
    assert steps == recorded
    assert steps["neg/fuel-exhausted.cctt"] == 1_000_001


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_corpus_file_round_trips(path):
    text = path.read_text()
    try:
        module = parse_module(text)
    except UnboundVariable:
        pytest.skip("file deliberately names something undeclared")
    except Exception:
        if EXPECT_PARSE_ERROR.search(text):
            pytest.skip("file deliberately fails to parse")
        raise
    assert parse_module(print_module(module)) == module


def _elaborated_terms():
    """Every type and body the corpus files elaborate to."""
    for path in FILES:
        try:
            module = parse_module(path.read_text())
        except CcttError:
            continue
        for decl in module.decls:
            match decl:
                case Definition(_, ty, body, _):
                    yield ty
                    yield body
                case ConvCheck(_, ty, lhs, rhs, _):
                    yield from (ty, lhs, rhs)
                case DataDefinition(sig, _):
                    yield from sig.params
                    for ctor in sig.constructors:
                        yield from ctor.args
                        for arity in ctor.rec_arities:
                            yield from arity
                        for _, piece in ctor.boundary:
                            yield piece


def _subterms(t):
    """t and every term inside it."""
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Term):
            yield u
            stack += (getattr(u, name) for name in u._fields)
        elif isinstance(u, ElimCase):
            stack.append(u.body)
        elif type(u) is tuple:
            stack += u


def test_loose_bounds_of_the_corpus_agree_with_free_indices():
    terms = list(_elaborated_terms())
    assert len(terms) > 150
    checked = 0
    for t in terms:
        loose_bound(t)   # worked out from the root, kept on every subterm
        for u in _subterms(t):
            assert loose_bound(u) == bound_of(u), (t, u)
            checked += 1
    assert checked > 1000


# The files with data types, eliminators or boundaries, and the negatives
# about them.
MUTANT_FILES = sorted(
    [*CORPUS.glob("05-*/*.cctt")]
    + [CORPUS / "neg" / f"{stem}.cctt" for stem in (
        "boundary-incompatible", "boundary-not-covering", "case-missing",
        "forward-constructor-reference", "incompatible-overlap",
        "tube-mismatch", "motive-mismatch", "arity-mismatch",
        "non-proper-entry")])


def _verdict_class(status, decl, expect, detail):
    """The error class a report line stands for: the one raised, `-` for
    none, `checked` for an expected failure that checked, `parsed` for an
    expected parse error that parsed and `conv` for a conversion
    expectation that came out the other way."""
    if status == "PASS":
        return expect[1] if expect is not None and expect[0] == "fail" \
            else "-"
    if status == "SKIP":
        return "-"
    if decl == "module":
        return "parsed" if detail.endswith("but the file parsed") \
            else "ParseError"
    if detail.endswith(", but it checked"):
        return "checked"
    if detail == "conversion check came out the other way":
        return "conv"
    if detail.startswith("expected ") and ", got " in detail:
        detail = detail.split(", got ", 1)[1]
    return detail.split(":", 1)[0]


class _DetailReport(Report):
    """A report that keeps each line's detail too."""

    def __init__(self):
        super().__init__()
        self.details = []

    def record(self, status, path, decl, detail=None):
        super().record(status, path, decl, detail)
        self.details.append(detail)


def boundary_mutants(count):
    """The first `count` seeded single-token mutants of the boundary files:
    for each, its text, its declaration names, its report and the verdict
    lines (mutant number, file, status, declaration, error class) it
    gets."""
    rng = random.Random(7)
    mutants = {path: token_mutants(path.read_text(), rng)
               for path in MUTANT_FILES}
    for n in range(count):
        path = rng.choice(MUTANT_FILES)
        text = next(mutants[path])
        try:
            decls = surface_module(text)
        except ParseError:
            decls = [("module", None, None)]
        if EXPECT_PARSE_ERROR.search(text):
            decls = [("module", None, None)]
        report = _DetailReport()
        with contextlib.redirect_stdout(io.StringIO()):
            check_file(str(path), text, 100_000, report)
        name = path.relative_to(CORPUS).as_posix()
        verdicts = [
            f"{n} {name} {status} {decl} "
            f"{_verdict_class(status, decl, expect, detail)}"
            for (status, _, decl), detail, (_, expect, _) in zip(
                report.lines, report.details, decls)
        ]
        yield text, [name for name, _, _ in decls], report, verdicts


def test_boundary_file_mutants_get_a_verdict_each():
    # Each declaration gets one verdict, and the verdict recorded for it: a
    # change to boundary checking that keeps the corpus verdicts must keep
    # each mutant's status and error class too.
    lines = []
    for text, names, report, verdicts in boundary_mutants(300):
        assert [decl for _, _, decl in report.lines] == names, text
        lines += verdicts
    recorded = (GOLDEN / "boundary-mutants.txt").read_text()
    assert lines == recorded.splitlines()


def _elaborations(label, text):
    """A line per declaration of text: its name, its expectation, and the
    SHA-256 of the repr of its kernel form, or its error class and message;
    one `module` line for a syntax error."""
    try:
        decls = surface_module(text)
    except ParseError as err:
        return [f"{label} module - ParseError: {err}"]
    lines = []
    for name, expect, d in decls:
        want = "-" if expect is None else ":".join(expect)
        if isinstance(d, CcttError):
            got = f"{d.error_class}: {d.message}"
        else:
            got = hashlib.sha256(repr(d).encode()).hexdigest()
        lines.append(f"{label} {name} {want} {got}")
    return lines


def elaboration_lines():
    """What `tests/golden/elaborations.txt` records: the elaborations of
    every corpus file and of the seed-1 and seed-2 inputs of the `reduce`
    and `scale` workloads, then the detail of every verdict other than
    PASS of the first 300 boundary mutants.  The 300-deep `paren300` input
    is left out, as it could not be parsed when the record was made."""
    lines = []
    for path in FILES:
        lines += _elaborations(path.relative_to(CORPUS).as_posix(),
                               path.read_text(encoding="utf-8"))
    workloads = load_workloads()
    for workload in ("reduce", "scale"):
        for seed in (1, 2):
            for inp in getattr(workloads, workload)(seed, ROOT):
                if not inp.path.endswith("paren300.cctt"):
                    lines += _elaborations(f"seed{seed}:{inp.path}",
                                           inp.text)
    for n, (_, _, report, _) in enumerate(boundary_mutants(300)):
        for (status, path, decl), detail in zip(report.lines,
                                                report.details):
            if status != "PASS":
                name = Path(path).relative_to(CORPUS).as_posix()
                lines.append(f"mutant {n} {name} {status} {decl} {detail}")
    return lines


def test_elaborations_are_the_recorded_ones():
    # The parser's output, errors and their positions included, pinned
    # declaration by declaration.  `python tests/test_corpus.py` rewrites
    # the record.
    recorded = (GOLDEN / "elaborations.txt").read_text(encoding="utf-8")
    assert elaboration_lines() == recorded.splitlines()


def test_referenced_names_walk_deep_terms():
    # Built directly, to test the walk alone.
    t = TopRef("z")
    for _ in range(20000):
        t = Con("nat", "succ", (), (), (t,), ())
    decl = Definition("big", Hit("nat", ()), t, None)
    assert cli.referenced_names(decl) == {"nat", "z"}


def deep_literal_file(depth=300):
    """A file shaped as the `scale` workload's `paren300.cctt`: a `succ`
    literal with depth - 1 nested parentheses."""
    return ("data nat : U0 where\n  | zero\n  | succ (m : nat)\n\n"
            "--expect-pass\ndef big : nat := "
            + "succ (" * (depth - 1) + "succ zero" + ")" * (depth - 1) + "\n")


def test_a_deep_literal_checks_and_the_next_file_too(tmp_path, capsys):
    deep, good = tmp_path / "deep.cctt", tmp_path / "good.cctt"
    deep.write_text(deep_literal_file())
    good.write_text("def g (A : U0) (x : A) : A := x\n")
    assert main(["check", str(deep), str(good)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"PASS {deep}:nat", f"PASS {deep}:big",
                     f"PASS {good}:g",
                     "3 declarations: 3 passed, 0 failed, 0 skipped"]


NAT_BOOL = ("data nat : U0 where\n  | zero\n  | succ (m : nat)\n\n"
            "data bool : U0 where\n  | tt\n  | ff\n\n")


def succ_chain(depth, end):
    """`depth` nested `succ` constructors around `end`."""
    return "succ (" * (depth - 1) + f"succ {end}" + ")" * (depth - 1)


# Inputs the checker reads in loops, each followed by a well-typed
# declaration: a telescope, a constructor chain, a `\x.` nest against a
# telescope, clock and tick abstractions against ∀ and ▷ telescopes, and
# constructor chains ill-typed at the bottom, under a constructor of
# another data type or a universe.
DEEP_CHECKS = {
    "arrow": "def deep : U1 := " + " -> ".join(["U0"] * 2000)
             + "\n\ndef after : U1 := U0 -> U0\n",
    "literal": NAT_BOOL + "def deep : nat := " + succ_chain(3000, "zero")
               + "\n\ndef after : nat := succ zero\n",
    "lambdas": "def deep : " + " -> ".join(["U0"] * 501) + " := "
               + "\\x. " * 500 + "x\n\ndef after : U0 -> U0 := \\x. x\n",
    "clocks": "def deep : " + "forall k. " * 1000 + "U1 := "
              + "/\\k. " * 1000 + "U0\n\ndef after : U1 := U0\n",
    "ticks": "def deep : " + "|> (a : k0) " * 1000 + "U1 := "
             + "tick a : k0. " * 1000 + "U0\n\ndef after : U1 := U0\n",
    "spine": "def deep (A : U0) (a : A) (f : " + " -> ".join(["A"] * 2001)
             + ") : A := f" + " a" * 2000 + "\n\ndef after : U1 := U0\n",
    **{f"{end}{depth}": NAT_BOOL + "def deep : nat := "
       + succ_chain(depth, end) + "\n\ndef after : nat := zero\n"
       for end in ("tt", "U0") for depth in (10, 1000)},
}


def test_deep_inputs_check_at_the_default_recursion_limit(tmp_path):
    # In a process of its own, at Python's default recursion limit, which
    # the parent of the checker's loops exceeded on each of these.
    paths = []
    for name, text in DEEP_CHECKS.items():
        paths.append(tmp_path / f"{name}.cctt")
        paths[-1].write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "cctt", "check", *map(str, paths)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60)
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
    verdicts = {}
    for line in proc.stdout.splitlines()[:-1]:
        status, _, rest = line.partition(" ")
        where, _, detail = rest.partition("  ")
        path, _, decl = where.rpartition(":")
        verdicts[Path(path).stem, decl] = (status, detail)
    for name in DEEP_CHECKS:
        assert verdicts[name, "after"] == ("PASS", ""), name
    for name in ("arrow", "literal", "lambdas", "clocks", "ticks", "spine"):
        assert verdicts[name, "deep"] == ("PASS", ""), name
    # An error deep down is the one a short chain gets.
    for end, message in (("tt", "constructor of a different data type"),
                         ("U0", "types do not match")):
        fail = ("FAIL", f"[TypeMismatch: {message}]")
        assert verdicts[f"{end}10", "deep"] == fail
        assert verdicts[f"{end}1000", "deep"] == fail
    assert proc.stdout.splitlines()[-1] == (
        "30 declarations: 26 passed, 4 failed, 0 skipped")
    assert proc.returncode == 1


def face_file(n):
    """A data type whose constructor's face is the meet of n joins
    `(i = 0) \\/ (j = 0)` over distinct variables: its normal form has 2^n
    clauses."""
    ivs = " ".join(f"(i{j} : I)" for j in range(2 * n))
    face = " /\\ ".join(f"((i{2 * j} = 0) \\/ (i{2 * j + 1} = 0))"
                        for j in range(n))
    return f"data d : U0 where\n  | pt\n  | c {ivs} [{face}]\n"


def test_a_face_too_large_fails_at_once_and_the_next_file_is_checked(
        tmp_path):
    # 14 conjuncts: the normal form would have 16384 clauses, which took
    # more than 150 s to absorb before faces were bounded.  In a process of
    # its own, so that the time taken is the whole run's.
    big, good = tmp_path / "big.cctt", tmp_path / "good.cctt"
    big.write_text(face_file(14))
    good.write_text("def g (A : U0) (x : A) : A := x\n")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cctt", "check", str(big), str(good)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60)
    took = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    assert proc.returncode == 1
    assert lines[0].startswith(f"FAIL {big}:d  [FaceTooLarge: ")
    assert lines[1:] == [f"PASS {good}:g",
                         "2 declarations: 1 passed, 1 failed, 0 skipped"]
    assert took < 5


def test_a_tube_join_too_large_fails_its_declaration_only(tmp_path, capsys):
    # Two tube faces of ten conjuncts, one at each endpoint: each normal
    # form has 1024 clauses, and their join, the composition's extent,
    # 2048.
    def face(end):
        return " /\\ ".join(f"((i{2 * j} = {end}) \\/ (i{2 * j + 1} = {end}))"
                             for j in range(10))
    ivs = " ".join(f"i{j}" for j in range(20))
    src = tmp_path / "tube.cctt"
    src.write_text(f"def d (A : U0) (x : A) : A :=\n  <{ivs}> comp^k A"
                   f" [{face(0)} -> x, {face(1)} -> x] x\n\n"
                   "def g (A : U0) (x : A) : A := x\n")
    assert main(["check", str(src)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"FAIL {src}:d  [FaceTooLarge: a join of 2048 clauses]",
        f"PASS {src}:g", "2 declarations: 1 passed, 1 failed, 0 skipped"]


# The clock constant k0 in definitions used under a clock binder, applied
# at k0, forced, and given as a clock argument under another clock binder,
# and a user's binder named k0, which shadows it.
K0_FILE = """\
def u0 (A : U0) (x : A) : |> (a : k0) A := tick a : k0. x

def w (A : U0) (x : A) : forall k. |> (a : k0) A := /\\k. u0 A x

--expect-conv \\A. \\x. w A x {k0} = \\A. \\x. tick a : k0. x
  : (A : U0) -> A -> |> (a : k0) A
--expect-not-conv \\A. \\x. \\y. w A x {k0} = \\A. \\x. \\y. tick a : k0. y
  : (A : U0) -> A -> A -> |> (a : k0) A

def d (A : U0) (x : A) : forall k. |> (a : k) (|> (b : k0) A)
  := /\\k. tick a : k. u0 A x

--expect-conv \\A. \\x. /\\k'. (k. d A x {k}) [k', <>] = \\A. \\x. /\\k'. u0 A x
  : (A : U0) -> A -> forall k. |> (b : k0) A
--expect-not-conv \\A. \\x. \\y. /\\k'. (k. d A x {k}) [k', <>]
  = \\A. \\x. \\y. /\\k'. u0 A y : (A : U0) -> A -> A -> forall k. |> (b : k0) A

def both (A : U0) (x : forall k. A) : forall k. forall k'. A
  := /\\k. /\\k'. x {k}

--expect-conv \\A. \\x. both A x {k0} = \\A. \\x. /\\k'. x {k0}
  : (A : U0) -> (forall k. A) -> forall k'. A
--expect-not-conv \\A. \\x. both A x {k0} = \\A. \\x. /\\k'. x {k'}
  : (A : U0) -> (forall k. A) -> forall k'. A

def T (A : U0) : forall k. U0 := /\\k. forall k'. |> (a : k) A

def e (A : U0) (x : |> (a : k0) A) : T A {k0} := /\\k'. x

--expect-fail(TypeMismatch)
def f (A : U0) (x : forall k. |> (a : k) A) : T A {k0} := /\\k'. x {k'}

def s (A : U0) (x : forall k. A) : forall k. A := /\\k0. x {k0}

--expect-conv s = \\A. \\x. x : (A : U0) -> (forall k. A) -> forall k. A
--expect-not-conv s = \\A. \\x. /\\k. x {k0}
  : (A : U0) -> (forall k. A) -> forall k. A
"""


def test_the_clock_constant_under_clock_binders_and_forcing(tmp_path,
                                                            capsys):
    # Each verdict is the one the checker gave when k0 was the clock
    # variable of an ambient context.
    assert check_lines(tmp_path, capsys, K0_FILE) == [
        "PASS u0", "PASS w", "PASS conv1", "PASS conv2", "PASS d",
        "PASS conv3", "PASS conv4", "PASS both", "PASS conv5", "PASS conv6",
        "PASS T", "PASS e", "PASS f", "PASS s", "PASS conv7", "PASS conv8"]


def test_dependents_of_a_failure_are_skipped(tmp_path, capsys):
    src = tmp_path / "dep.cctt"
    src.write_text(
        "--expect-fail(TypeMismatch)\n"
        "def broken (A : U0) (x : A) : U0 := x\n\n"
        "def uses : U0 := broken\n"
    )
    code = main(["check", str(src)])
    out = capsys.readouterr().out
    assert code == 0
    assert f"PASS {src}:broken" in out
    assert f"SKIP {src}:uses" in out


def test_a_data_type_is_not_its_own_dependency(tmp_path, capsys):
    # Its boundary names the data type; a failed data type of the same name
    # declared before does not make it a dependent.
    assert check_lines(tmp_path, capsys,
                       "data t : U0 where | a | b (i : I) [(i = 0) -> z]\n"
                       "data t : U0 where | a | b (i : I) [(i = 0) -> a]\n"
                       ) == [
        "FAIL t  [ParseError: a boundary term is a recursive argument, a"
        " constructor, or an hcomp]",
        "PASS t",
    ]


def test_a_redeclaration_that_checks_is_no_failed_dependency(
        tmp_path, capsys):
    # f names the t that checked, not the one that failed before it.
    assert check_lines(tmp_path, capsys,
                       "data t : U0 where\n"
                       "  | a (x : nope)\n"
                       "\n"
                       "data t : U0 where\n"
                       "  | a\n"
                       "\n"
                       "def f : t := a\n") == [
        "FAIL t  [UnboundVariable: unbound name 'nope']",
        "PASS t",
        "PASS f",
    ]


def test_unexpected_failure_sets_exit_code(tmp_path, capsys):
    src = tmp_path / "bad.cctt"
    src.write_text("def f (A : U0) (x : A) : U0 := x\n")
    code = main(["check", str(src)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "TypeMismatch" in out


def test_parse_error_pragma_only_counts_as_a_pragma(tmp_path, capsys):
    src = tmp_path / "mention.cctt"
    src.write_text(
        "-- a file that must not parse starts with --expect-fail(ParseError)\n"
        "def f (A : U0) (x : A) : A := x\n"
    )
    code = main(["check", str(src)])
    out = capsys.readouterr().out
    assert code == 0
    assert f"PASS {src}:f" in out
    assert "module" not in out


def check_lines(tmp_path, capsys, text):
    """The verdict lines `cctt check` prints for a file holding text."""
    src = tmp_path / "m.cctt"
    src.write_text(text)
    main(["check", str(src)])
    lines = capsys.readouterr().out.splitlines()
    return [line.replace(f"{src}:", "") for line in lines[:-1]]


def test_a_syntax_error_fails_the_module_before_any_declaration(
        tmp_path, capsys):
    # The scope error in the first declaration is not reported: the whole
    # module fails on the syntax error in the third.
    assert check_lines(tmp_path, capsys, "def a : U0 := nope\n"
                                         "def b : U1 := U0\n"
                                         "def c : U0 := (\n") \
        == ["FAIL module  [4:1: expected a term, found 'end of input']"]


def test_scope_errors_fail_their_declarations_only(tmp_path, capsys):
    assert check_lines(tmp_path, capsys,
                       "def p (A : U0) (x : A) : A := comp^i [] x\n"
                       "def q (A : U0) (x : A) : A := x {j}\n"
                       "def r (A : U0) (x : A) : A := x\n") == [
        "FAIL p  [ParseError: comp needs a type annotation]",
        "FAIL q  [ParseError: 'j' is not a clock variable in scope]",
        "PASS r",
    ]


def test_a_scope_error_is_not_a_parse_error(tmp_path, capsys):
    assert check_lines(tmp_path, capsys, "--expect-fail(ParseError)\n"
                                         "def a : U0 := nope\n") \
        == ["FAIL module  [expected a parse error, but the file parsed]"]


def test_constructor_parameters_may_be_left_out(tmp_path, capsys):
    # With any other number of arguments, the checker reports the arity.
    assert check_lines(
        tmp_path, capsys,
        "data list (A : U0) : U0 where | nil | cons (x : A) (xs : list)\n"
        "def one (A : U0) (a : A) : list A := cons A a (nil A)\n"
        "def two (A : U0) (a : A) : list A := cons a nil\n"
        "def bad (A : U0) (a : A) : list A := cons a\n") == [
        "PASS list", "PASS one", "PASS two",
        "FAIL bad  [ArityMismatch: cons expects 1 recursive arguments,"
        " got 0]",
    ]


def test_max_steps_flag_limits_conversion(tmp_path, capsys):
    src = tmp_path / "steps.cctt"
    src.write_text(
        "data nat : U0 where\n  | zero\n  | succ (m : nat)\n\n"
        "def add (m : nat) (n : nat) : nat :=\n"
        "  clockelim^0 nat m into (h. nat) with\n"
        "  | zero => n\n  | succ x y => succ y\n\n"
        "--expect-conv add (succ zero) (succ zero)"
        " = succ (succ zero) : nat\n"
    )
    assert main(["check", str(src)]) == 0
    capsys.readouterr()
    code = main(["check", "--max-steps", "3", str(src)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FuelExhausted" in out


def test_negative_max_steps_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "f.cctt"
    src.write_text("def f (A : U0) (x : A) : A := x\n")
    code = main(["check", "--max-steps", "-5", str(src)])
    captured = capsys.readouterr()
    assert code == 2
    assert "--max-steps" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out


def test_file_not_in_utf8_fails_and_the_next_is_checked(tmp_path, capsys):
    bad = tmp_path / "bad.cctt"
    bad.write_bytes(b"def f (A : U0) (x : A) : A := x\n-- \xff\n")
    good = tmp_path / "good.cctt"
    good.write_text("def g (A : U0) (x : A) : A := x\n")
    code = main(["check", str(bad), str(good)])
    out = capsys.readouterr().out
    assert code == 1
    assert f"FAIL {bad}:module  [ParseError: " in out
    assert f"PASS {good}:g" in out


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    code = main(["check", str(tmp_path / "nope.cctt")])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read" in err


def test_no_input_is_a_usage_error(capsys):
    assert main(["check"]) == 2


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2


def test_conversion_trace_is_deterministic(capsys):
    path = str(CORPUS / "05-induction-under-clocks" / "nat-add.cctt")
    traces = []
    for _ in range(2):
        assert main(["check", "--trace-conv", path]) == 0
        traces.append(capsys.readouterr().out)
    assert "TRACE" in traces[0]
    assert "object at" not in traces[0]
    assert traces[0] == traces[1]


if __name__ == "__main__":
    # Rewrite the records of `corpus_output` and `elaboration_lines`.
    for flags, golden in CORPUS_RUNS:
        (GOLDEN / golden).write_text(corpus_output(flags)[1],
                                     encoding="utf-8")
    (GOLDEN / "elaborations.txt").write_text(
        "\n".join(elaboration_lines()) + "\n", encoding="utf-8")
